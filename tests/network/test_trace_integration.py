"""Tests for structured tracing through a whole fabric."""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.monitor import Trace

TOPICS = {"host.inject", "switch.enqueue", "switch.forward", "host.deliver"}


def _on(trace, topic):
    """The retained records on one topic, oldest first."""
    return [rec for rec in trace.records if rec.topic == topic]


@pytest.fixture
def traced_run(tiny_topology):
    trace = Trace()
    fabric = Fabric(tiny_topology, ARCHITECTURES["advanced-2vc"], trace=trace)
    flow = fabric.open_flow(0, 9, "control", kind=FlowKind.CONTROL)
    pkts = []
    fabric.subscribe_delivery(lambda p, t: pkts.append(p))
    fabric.submit(flow, 4000)  # two packets
    fabric.run(until=100_000)
    return trace, fabric, pkts


class TestFabricTracing:
    def test_injection_and_delivery_recorded(self, traced_run):
        trace, _, pkts = traced_run
        injects = _on(trace, "host.inject")
        delivers = _on(trace, "host.deliver")
        assert len(injects) == 2
        assert len(delivers) == 2
        # payloads carry (node, uid, vc)
        assert injects[0].payload[0] == "h0"
        assert {rec.payload[1] for rec in delivers} == {p.uid for p in pkts}

    def test_switch_hops_recorded_in_order(self, traced_run):
        trace, fabric, pkts = traced_run
        uid = pkts[0].uid
        forwards = [rec for rec in _on(trace, "switch.forward") if rec.payload[3] == uid]
        # h0 -> leaf -> spine -> leaf -> h9: three switch traversals.
        assert len(forwards) == 3
        times = [rec.time for rec in forwards]
        assert times == sorted(times)
        # The traversed switches form a connected leaf-spine-leaf walk.
        nodes = [rec.payload[0] for rec in forwards]
        assert nodes[0].startswith("sw0.")
        assert nodes[1].startswith("sw1.")
        assert nodes[2].startswith("sw0.")

    def test_enqueue_precedes_forward_per_switch(self, traced_run):
        trace, _, pkts = traced_run
        uid = pkts[0].uid
        for node in {r.payload[0] for r in _on(trace, "switch.forward")}:
            enq = [
                r.time
                for r in _on(trace, "switch.enqueue")
                if r.payload[0] == node and r.payload[3] == uid
            ]
            fwd = [
                r.time
                for r in _on(trace, "switch.forward")
                if r.payload[0] == node and r.payload[3] == uid
            ]
            assert enq and fwd and enq[0] <= fwd[0]

    def test_topic_filtered_trace_is_cheap(self, tiny_topology):
        # one packet: one delivery among the records of all four topics
        trace = Trace()
        fabric = Fabric(tiny_topology, ARCHITECTURES["advanced-2vc"], trace=trace)
        flow = fabric.open_flow(0, 9, "control", kind=FlowKind.CONTROL)
        fabric.submit(flow, 2000)
        fabric.run(until=100_000)
        assert len(_on(trace, "host.deliver")) == 1
        assert {r.topic for r in trace.records} == TOPICS

    def test_null_trace_default_records_nothing(self, make_fabric):
        fabric = make_fabric()
        assert fabric.trace is None
        assert all(node.obs is None for node in (*fabric.hosts, *fabric.switches.values()))
        delivered = []
        fabric.subscribe_delivery(lambda pkt, now: delivered.append(pkt))
        fabric.submit(fabric.open_flow(0, 9, "control", kind=FlowKind.CONTROL), 2000)
        fabric.run(until=100_000)
        assert len(delivered) == 1 and delivered[0].traced is False
