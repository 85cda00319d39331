"""Tests for the tracing facility."""

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
        trace = Trace(topics={"keep"})
        trace.record(1, "keep", 1)
        trace.record(2, "drop", 2)
        assert len(trace.records) == 1
        assert trace.records[0].topic == "keep"

    def test_capacity_drops_and_counts(self):
        trace = Trace(capacity=2)
        for i in range(5):
            trace.record(i, "t")
        assert len(trace.records) == 2
        assert trace.dropped == 3

    def test_by_topic(self):
        trace = Trace()
        trace.record(1, "a")
        trace.record(2, "b")
        trace.record(3, "a")
        assert [r.time for r in trace.by_topic("a")] == [1, 3]

    def test_subscribe_delivers_synchronously(self):
        trace = Trace()
        seen = []
        trace.subscribe("evt", lambda rec: seen.append(rec.payload))
        trace.record(5, "evt", "data")
        trace.record(6, "other")
        assert seen == [("data",)]

    def test_subscribe_widens_topic_filter(self):
        trace = Trace(topics={"a"})
        seen = []
        trace.subscribe("b", seen.append)
        trace.record(1, "b", 1)
        assert len(seen) == 1

    def test_clear(self):
        trace = Trace(capacity=1)
        trace.record(1, "a")
        trace.record(2, "a")
        trace.clear()
        assert trace.records == []
        assert trace.dropped == 0


class TestNullTrace:
    """There is no no-op sink: off is ``trace=None`` at the call site, and
    the quietest ``Trace`` is one filtered to no topic."""

    def test_is_disabled_and_silent(self):
        assert monitor.__all__ == ["Trace", "TraceRecord"]
        assert not hasattr(Trace(), "enabled")
        silent = Trace(topics=())
        silent.record(1, "anything", "payload")
        assert len(silent.records) == 0 and silent.dropped == 0

    def test_cannot_subscribe(self):
        # ... and unlike the old null sink, even that one delivers on demand
        silent = Trace(topics=())
        seen = []
        silent.subscribe("t", seen.append)
        silent.record(1, "t", "x")
        silent.record(2, "u", "y")
        assert [r.time for r in seen] == [1]
        assert [r.topic for r in silent.records] == ["t"]


class ListModel:
    """What ``Trace`` promises, as the shortest code that keeps it: one
    list, trimmed after every append."""

    def __init__(self, topics, capacity, ring):
        self.topics = None if topics is None else set(topics)
        self.capacity, self.ring = capacity, ring
        self.records, self.dropped, self.heard = [], 0, []
        self.subscribers = []  # (topic, name), in subscription order

    def subscribe(self, topic, name):
        self.subscribers.append((topic, name))
        if self.topics is not None:
            self.topics.add(topic)

    def record(self, time, topic, *payload):
        if self.topics is not None and topic not in self.topics:
            return
        rec = TraceRecord(time, topic, payload)
        self.records.append(rec)
        if self.capacity is not None and len(self.records) > self.capacity:
            self.dropped += 1
            del self.records[0 if self.ring else -1]
        self.heard += [(name, rec) for to, name in self.subscribers if to == topic]


_TOPICS = st.sampled_from(["a", "b", "c"])
_OPS = st.one_of(
    st.tuples(st.just("record"), _TOPICS, st.lists(st.integers(0, 9), max_size=3)),
    st.tuples(st.just("subscribe"), _TOPICS),
    st.tuples(st.just("clear")),
)


class TestTraceAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(
        topics=st.none() | st.sets(_TOPICS),
        capacity=st.none() | st.integers(1, 4),
        ring=st.booleans(),
        ops=st.lists(_OPS, max_size=40),
    )
    def test_same_buffer_drops_and_callback_stream(self, topics, capacity, ring, ops):
        if ring and capacity is None:
            capacity = 2  # ring=True requires one
        trace = Trace(topics=topics, capacity=capacity, ring=ring)
        model = ListModel(topics, capacity, ring)
        heard = []
        for time, op in enumerate(ops):
            if op[0] == "record":
                trace.record(time, op[1], *op[2])
                model.record(time, op[1], *op[2])
            elif op[0] == "subscribe":
                trace.subscribe(op[1], lambda rec, name=time: heard.append((name, rec)))
                model.subscribe(op[1], time)
            elif op[0] == "clear":
                trace.clear()
                model.records, model.dropped = [], 0
            assert list(trace.records) == model.records
            assert trace.dropped == model.dropped
        # capacity bounds memory, not the callback stream
        assert heard == model.heard
        assert all(type(rec) is TraceRecord for rec in trace.records)
        assert trace.snapshot() == {
            "retained": len(model.records),
            "dropped": model.dropped,
            "capacity": capacity,
            "policy": "ring-keep-newest" if ring else "keep-oldest",
            "topics": None if model.topics is None else sorted(model.topics),
        }
