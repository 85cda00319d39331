"""Tests for the tracing facility."""

import pytest

from repro.sim import monitor
from repro.sim.monitor import Trace


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
