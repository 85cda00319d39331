"""Tests for fabric assembly and the flow-level API."""

import gc

import pytest

from repro.constants import VC_BEST_EFFORT, VC_REGULATED
from repro.core.admission import AdmissionError
from repro.core.flow import FlowKind
from repro.experiments.presets import make_topology
from repro.network.fabric import Fabric, FabricParams
from repro.network.topology import build_folded_shuffle_min


class TestConstruction:
    def test_all_links_wired(self, make_fabric):
        fabric = make_fabric()
        for link in fabric.links.values():
            assert link.sender is not None, f"{link} has no sender"
            assert link.receiver is not None, f"{link} has no receiver"

    def test_hosts_and_switches_counts(self, make_fabric):
        fabric = make_fabric()
        assert len(fabric.hosts) == 16
        assert len(fabric.switches) == 8

    def test_cold_build_at_512_hosts_allocates_no_voq(self):
        """A fabric costs what it touches: 48 switches x 32 x 32 ports x
        2 VCs is 98 304 VOQs, of which a run uses the ones up*/down*
        routing can reach.  None exists before the first packet, and the
        build stays far below the ~330 000 collector-tracked objects the
        dense tables cost (37 000 measured)."""
        topology = make_topology("scale512")
        gc.collect()
        before = len(gc.get_objects())
        fabric = Fabric(topology)
        built = len(gc.get_objects()) - before
        assert sum(switch.voq_count() for switch in fabric.switches.values()) == 0
        assert built < 60_000

    def test_paper_defaults(self):
        params = FabricParams()
        assert params.bytes_per_ns == 1.0  # 8 Gb/s
        assert params.mtu == 2048
        assert params.buffer_bytes_per_vc == 8192
        assert params.eligible_offset_ns == 20_000

    def test_buffer_must_hold_an_mtu(self):
        with pytest.raises(ValueError):
            FabricParams(mtu=4096, buffer_bytes_per_vc=2048)


class TestOpenFlow:
    def test_regulated_flow_reserves_bandwidth(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 9, "multimedia", bw_bytes_per_ns=0.25)
        assert flow.path  # route fixed
        assert fabric.admission.reservation_count == 1
        assert flow.spec.vc == VC_REGULATED

    def test_admission_rejects_oversubscription(self, make_fabric):
        fabric = make_fabric()
        # Saturate host 0's injection link (every path shares it).
        fabric.open_flow(0, 9, "multimedia", bw_bytes_per_ns=0.7)
        fabric.open_flow(0, 10, "multimedia", bw_bytes_per_ns=0.3)
        with pytest.raises(AdmissionError):
            fabric.open_flow(0, 11, "multimedia", bw_bytes_per_ns=0.1)
        # The rejected flow leaves no trace in the registry.
        assert len(fabric.flows) == 2
        assert all(flow.path for flow in fabric.flows)
        assert fabric.admission.reservation_count == 2

    def test_control_flow_skips_reservation(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 9, "control", kind=FlowKind.CONTROL)
        assert fabric.admission.reservation_count == 0
        assert flow.spec.bw_bytes_per_ns == fabric.params.bytes_per_ns

    def test_best_effort_defaults_to_vc1(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 9, "best-effort", bw_bytes_per_ns=0.5)
        assert flow.spec.vc == VC_BEST_EFFORT
        assert fabric.admission.reservation_count == 0

    def test_path_matches_a_routing_candidate(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 9, "multimedia", bw_bytes_per_ns=0.1)
        candidates = {p.ports for p in fabric.routing.candidates(0, 9)}
        assert flow.path in candidates


class TestEndToEnd:
    @pytest.mark.parametrize(
        "arch", ["traditional-2vc", "ideal", "simple-2vc", "advanced-2vc"]
    )
    def test_message_crosses_fabric(self, make_fabric, arch):
        fabric = make_fabric(arch)
        flow = fabric.open_flow(0, 15, "control", kind=FlowKind.CONTROL)
        got = []
        fabric.subscribe_delivery(lambda p, t: got.append(p))
        fabric.submit(flow, 6000)
        fabric.run(until=100_000)
        assert len(got) == 3  # 2048+2048+1904
        assert all(p.deliver is not None for p in got)
        assert fabric.packets_in_flight() == 0

    def test_same_leaf_delivery(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 1, "control", kind=FlowKind.CONTROL)
        got = []
        fabric.subscribe_delivery(lambda p, t: got.append((p, t)))
        fabric.submit(flow, 1000)
        fabric.run(until=50_000)
        (pkt, when), = got
        # host->leaf->host: two serializations + two hop delays.
        assert when == 2 * 1000 + 2 * fabric.params.link_delay_ns

    def test_multiple_subscribers_all_notified(self, make_fabric):
        fabric = make_fabric()
        flow = fabric.open_flow(0, 5, "control", kind=FlowKind.CONTROL)
        a, b = [], []
        fabric.subscribe_delivery(lambda p, t: a.append(p))
        fabric.subscribe_delivery(lambda p, t: b.append(p))
        fabric.submit(flow, 100)
        fabric.run(until=50_000)
        assert len(a) == len(b) == 1

    def test_counters_balance(self, make_fabric):
        fabric = make_fabric()
        flows = [
            fabric.open_flow(i, (i + 5) % 16, "control", kind=FlowKind.CONTROL)
            for i in range(4)
        ]
        for flow in flows:
            fabric.submit(flow, 4000)
        fabric.run(until=200_000)
        submitted = sum(h.packets_submitted for h in fabric.hosts)
        received = sum(h.packets_received for h in fabric.hosts)
        assert submitted == received == 8
        assert fabric.queued_in_switches() == 0
        assert fabric.queued_in_hosts() == 0


class TestCustomParams:
    def test_slower_links_stretch_latency(self, tiny_topology):
        from repro.core.architectures import ARCHITECTURES

        fast = Fabric(tiny_topology, ARCHITECTURES["ideal"], FabricParams(link_gbps=8.0))
        slow = Fabric(tiny_topology, ARCHITECTURES["ideal"], FabricParams(link_gbps=4.0))
        results = {}
        for name, fabric in (("fast", fast), ("slow", slow)):
            flow = fabric.open_flow(0, 1, "control", kind=FlowKind.CONTROL)
            got = []
            fabric.subscribe_delivery(lambda p, t, g=got: g.append(t))
            fabric.submit(flow, 1000)
            fabric.run(until=100_000)
            results[name] = got[0]
        assert results["slow"] > results["fast"]

    def test_zero_link_delay_allowed(self, tiny_topology):
        from repro.core.architectures import ARCHITECTURES

        fabric = Fabric(
            tiny_topology, ARCHITECTURES["ideal"], FabricParams(link_delay_ns=0)
        )
        flow = fabric.open_flow(0, 1, "control", kind=FlowKind.CONTROL)
        got = []
        fabric.subscribe_delivery(lambda p, t: got.append(t))
        fabric.submit(flow, 1000)
        fabric.run(until=100_000)
        assert got == [2000]
