"""Trace buffer behaviour: topics, subscribers, and the two drop policies."""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import run_snapshot
from repro.sim.monitor import Trace, TraceRecord


class TestTopicsAndSubscribers:
    def test_topic_filtering(self):
        t = Trace(topics={"switch.forward"})
        t.record(1, "switch.forward", "p1")
        t.record(2, "link.busy", "ignored")
        assert [r.topic for r in t.records] == ["switch.forward"]

    def test_unfiltered_records_everything(self):
        t = Trace()
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        assert len(t.records) == 2

    def test_subscribe_delivers_matching_records(self):
        t = Trace()
        seen = []
        t.subscribe("a", seen.append)
        t.record(1, "a", "x")
        t.record(2, "b", "y")
        assert seen == [TraceRecord(1, "a", ("x",))]

    def test_subscribe_widens_topic_filter(self):
        t = Trace(topics={"a"})
        seen = []
        t.subscribe("b", seen.append)
        t.record(1, "b", "x")
        assert len(seen) == 1  # subscribing added "b" to the filter
        assert t.records[0].topic == "b"

    def test_by_topic(self):
        t = Trace()
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        t.record(3, "a", 3)
        assert [r.time for r in t.by_topic("a")] == [1, 3]


class TestDropPolicies:
    def test_default_keeps_oldest(self):
        t = Trace(capacity=2)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [0, 1]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "keep-oldest"

    def test_ring_keeps_newest(self):
        t = Trace(capacity=2, ring=True)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [2, 3]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "ring-keep-newest"

    def test_ring_requires_capacity(self):
        with pytest.raises(ValueError):
            Trace(ring=True)

    def test_subscribers_see_records_past_capacity(self):
        t = Trace(capacity=1, ring=True)
        seen = []
        t.subscribe("a", seen.append)
        for i in range(3):
            t.record(i, "a", i)
        assert len(seen) == 3  # capacity bounds memory, not the stream
        assert len(t.records) == 1

    def test_clear_resets_buffer_and_drop_count(self):
        t = Trace(capacity=1)
        t.record(0, "a")
        t.record(1, "a")
        assert t.dropped == 1
        t.clear()
        assert list(t.records) == [] and t.dropped == 0

    def test_snapshot_shape(self):
        t = Trace(topics={"b", "a"}, capacity=8, ring=True)
        t.record(0, "a")
        assert t.snapshot() == {
            "retained": 1,
            "dropped": 0,
            "capacity": 8,
            "policy": "ring-keep-newest",
            "topics": ["a", "b"],
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
        assert len(trace.by_topic("host.deliver")) == 1

    def test_subscribe_rejected(self):
        # the snapshot reports a trace that retained nothing; only None is off
        assert "trace" not in run_snapshot(MetricsRegistry(), trace=None)
        assert run_snapshot(MetricsRegistry(), trace=Trace())["trace"]["retained"] == 0
