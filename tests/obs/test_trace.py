"""Trace buffer behaviour: the newest records, the drop count and the snapshot."""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import run_snapshot
from repro.sim.monitor import Trace, TraceRecord


class TestTopicsAndSubscribers:
    """A trace has no topic filter and no subscribers: it keeps every
    record it is given, in order, whatever its topic."""

    def test_topic_filtering(self):
        with pytest.raises(TypeError):
            Trace(topics={"switch.forward"})

    def test_unfiltered_records_everything(self):
        t = Trace()
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        assert len(t.records) == 2

    def test_subscribe_delivers_matching_records(self):
        assert not hasattr(Trace(), "subscribe")
        assert not hasattr(Trace(), "_subscribers")

    def test_subscribe_widens_topic_filter(self):
        t = Trace(capacity=4)
        for time, topic in enumerate(["b", "a", "c", "a"]):
            t.record(time, topic, time)
        assert t.records == [
            TraceRecord(0, "b", (0,)),
            TraceRecord(1, "a", (1,)),
            TraceRecord(2, "c", (2,)),
            TraceRecord(3, "a", (3,)),
        ]

    def test_by_topic(self):
        t = Trace()
        assert not hasattr(t, "by_topic") and not hasattr(t, "clear")
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        t.record(3, "a", 3)
        assert [(r.time, r.topic) for r in t.records] == [(1, "a"), (2, "b"), (3, "a")]


class TestDropPolicies:
    """One policy: the newest ``capacity`` records; ``dropped`` counts
    every eviction."""

    def test_default_keeps_oldest(self):
        # the default is the same ring: a capped trace keeps the newest
        t = Trace(capacity=2)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [2, 3]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "ring-keep-newest"

    def test_ring_keeps_newest(self):
        t = Trace(capacity=2, ring=True)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [2, 3]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "ring-keep-newest"

    def test_ring_requires_capacity(self):
        with pytest.raises(ValueError, match="keep the oldest"):
            Trace(capacity=2, ring=False)
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            Trace(capacity=0)

    def test_subscribers_see_records_past_capacity(self):
        # Trace() is unbounded: it evicts nothing
        t = Trace()
        for i in range(1000):
            t.record(i, "a", i)
        assert len(t.records) == 1000 and t.dropped == 0
        assert t.snapshot()["policy"] == "keep-oldest"

    def test_clear_resets_buffer_and_drop_count(self):
        t = Trace(capacity=1)
        for i in range(5):
            t.record(i, "a")
            assert t.dropped == i
        assert [r.time for r in t.records] == [4]

    def test_snapshot_shape(self):
        t = Trace(capacity=8)
        t.record(0, "a")
        t.record(1, "b")
        assert t.snapshot() == {
            "retained": 2,
            "dropped": 0,
            "capacity": 8,
            "policy": "ring-keep-newest",
            "topics": None,
        }

    def test_snapshot_unbounded(self):
        snap = Trace().snapshot()
        assert snap["capacity"] is None and snap["topics"] is None
        assert snap["policy"] == "keep-oldest"


class TestNullTrace:
    """Off is ``None``: a ``Trace`` that is passed is a sink, whatever it
    holds, and nothing stands in for one that is not."""

    def test_disabled_and_inert(self, tiny_topology):
        # a trace alone is a complete set of sinks: one shared observer,
        # the other two off
        trace = Trace()
        fabric = Fabric(tiny_topology, ARCHITECTURES["advanced-2vc"], trace=trace)
        assert fabric.trace is trace and fabric.metrics is None and fabric.tracer is None
        observers = {id(node.obs) for node in (*fabric.hosts, *fabric.switches.values())}
        assert len(observers) == 1 and fabric.hosts[0].obs is not None
        fabric.submit(fabric.open_flow(0, 9, "control", kind=FlowKind.CONTROL), 2000)
        fabric.run(until=100_000)
        assert [r.topic for r in trace.records].count("host.deliver") == 1

    def test_subscribe_rejected(self):
        # the snapshot reports a trace that retained nothing; only None is off
        assert "trace" not in run_snapshot(MetricsRegistry(), trace=None)
        assert run_snapshot(MetricsRegistry(), trace=Trace())["trace"]["retained"] == 0
