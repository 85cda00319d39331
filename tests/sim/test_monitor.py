"""Tests for the tracing facility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import monitor
from repro.sim.monitor import Trace, TraceRecord


class TestTrace:
    def test_records_everything_by_default(self):
        trace = Trace()
        trace.record(1, "a", "x")
        trace.record(2, "b")
        assert [(r.time, r.topic) for r in trace.records] == [(1, "a"), (2, "b")]

    def test_topic_filter(self):
        # no topic filter: the observer chooses what to record
        with pytest.raises(TypeError):
            Trace(topics={"keep"})

    def test_capacity_drops_and_counts(self):
        trace = Trace(capacity=2)
        for i in range(5):
            trace.record(i, "t")
        assert [r.time for r in trace.records] == [3, 4]
        assert trace.dropped == 3

    @pytest.mark.parametrize("capacity", [True, 2.5, 2.0], ids=repr)
    def test_capacity_must_be_an_int(self, capacity):
        # True used to keep one record, 2.5 to fail inside deque
        with pytest.raises(ValueError, match=f"an int, got {capacity!r}"):
            Trace(capacity=capacity)

    def test_by_topic(self):
        trace = Trace()
        assert not hasattr(trace, "by_topic")
        trace.record(1, "a")
        trace.record(2, "b")
        trace.record(3, "a")
        assert [(r.time, r.topic) for r in trace.records] == [(1, "a"), (2, "b"), (3, "a")]

    def test_subscribe_delivers_synchronously(self):
        trace = Trace()
        assert not hasattr(trace, "subscribe") and not hasattr(trace, "_subscribers")

    def test_subscribe_widens_topic_filter(self):
        # every topic is retained, payload and all
        trace = Trace(capacity=3)
        trace.record(1, "b", 1)
        trace.record(2, "z", "x", 2)
        assert trace.records == [TraceRecord(1, "b", (1,)), TraceRecord(2, "z", ("x", 2))]

    def test_clear(self):
        trace = Trace(capacity=1)
        assert not hasattr(trace, "clear")
        trace.record(1, "a")
        trace.record(2, "a")
        assert [r.time for r in trace.records] == [2]
        assert trace.dropped == 1


class TestNullTrace:
    """There is no no-op sink: off is ``trace=None`` at the call site."""

    def test_is_disabled_and_silent(self):
        assert monitor.__all__ == ["Trace", "TraceRecord"]
        assert not hasattr(Trace(), "enabled")
        with pytest.raises(TypeError):
            Trace(topics=())
        assert Trace().records == [] and Trace().dropped == 0

    def test_cannot_subscribe(self):
        silent = Trace(capacity=1)
        with pytest.raises(AttributeError):
            silent.subscribe("t", print)
        assert silent.records == []


class ListModel:
    """What ``Trace`` promises, as the shortest code that keeps it: one
    list, trimmed from the front after every append."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.records, self.dropped = [], 0

    def record(self, time, topic, *payload):
        self.records.append(TraceRecord(time, topic, payload))
        if self.capacity is not None and len(self.records) > self.capacity:
            self.dropped += 1
            del self.records[0]


_TOPICS = st.sampled_from(["a", "b", "c"])
_OPS = st.tuples(_TOPICS, st.lists(st.integers(0, 9), max_size=3))


class TestTraceAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.none() | st.integers(1, 4), ops=st.lists(_OPS, max_size=40))
    def test_same_buffer_drops_and_callback_stream(self, capacity, ops):
        trace = Trace(capacity=capacity)
        model = ListModel(capacity)
        for time, (topic, payload) in enumerate(ops):
            trace.record(time, topic, *payload)
            model.record(time, topic, *payload)
            assert trace.records == model.records
            assert trace.dropped == model.dropped
            assert all(type(rec) is TraceRecord for rec in trace.records)
            assert trace.snapshot() == {
                "retained": len(model.records),
                "dropped": model.dropped,
                "capacity": capacity,
                "policy": "keep-oldest" if capacity is None else "ring-keep-newest",
                "topics": None,
            }
