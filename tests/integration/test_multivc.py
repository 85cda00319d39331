"""Multi-VC fabrics (the Section 6 counterfactual, functionally).

The paper argues a conventional switch could approach EDF's behaviour
only by "implementing many more VCs", which no real product affords.
These tests exercise the generalized VC plumbing: a 4-VC fabric with one
strict-priority channel per traffic class, under the conventional
(FIFO + round-robin) architecture.
"""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric, FabricParams
from repro.sim import units
from repro.sim.rng import RandomStreams
from repro.stats.collectors import MetricsCollector
from repro.traffic.mix import build_mix
from repro.experiments.config import scaled_video_mix

#: one strict-priority VC per Table 1 class, latency-critical first
VC_MAP = {"control": 0, "multimedia": 1, "best-effort": 2, "background": 3}


@pytest.fixture(scope="module")
def four_vc_run():
    from repro.network.topology import build_folded_shuffle_min

    topo = build_folded_shuffle_min(4, 4, 4)
    fabric = Fabric(
        topo, ARCHITECTURES["traditional-2vc"], FabricParams(n_vcs=4)
    )
    collector = MetricsCollector(warmup_ns=1_100 * units.US)
    fabric.subscribe_delivery(collector.on_delivery)
    mix = build_mix(fabric, RandomStreams(4), scaled_video_mix(1.0, 0.02, vc_map=VC_MAP))
    mix.start()
    fabric.run(until=2_400 * units.US)
    collector.finalize(fabric.engine.now)
    return fabric, collector


class TestFourVCFabric:
    def test_classes_ride_their_assigned_vcs(self, four_vc_run):
        fabric, _ = four_vc_run
        seen = {}
        fabric.subscribe_delivery(
            lambda p, t: seen.setdefault(p.tclass, p.vc)
        )
        # re-run a moment to observe fresh deliveries
        fabric.run(until=fabric.engine.now + 50 * units.US)
        for tclass, vc in seen.items():
            assert VC_MAP[tclass] == vc

    def test_losslessness_with_four_vcs(self, four_vc_run):
        fabric, _ = four_vc_run
        submitted = sum(h.packets_submitted for h in fabric.hosts)
        received = sum(h.packets_received for h in fabric.hosts)
        queued = fabric.queued_in_hosts() + fabric.queued_in_switches()
        assert 0 <= submitted - received - queued <= len(fabric.links)

    def test_dedicated_vc_rescues_control_latency(self, four_vc_run):
        """With its own top-priority channel, even the conventional switch
        delivers control traffic quickly -- the 'many more VCs' fix."""
        _, collector = four_vc_run
        assert collector.get("control").message_latency.mean < 40 * units.US

    def test_strict_priority_starves_the_lowest_class(self, four_vc_run):
        """...but strict per-class priorities are a blunt instrument: the
        bottom class is starved under saturation instead of receiving a
        controlled weighted share (what EDF weights provide)."""
        _, collector = four_vc_run
        be = collector.throughput("best-effort")
        bg = collector.throughput("background")
        assert bg < 0.7 * be

    def test_video_unpaced_despite_own_vc(self, four_vc_run):
        """A dedicated VC isolates video from best-effort but cannot give
        it *constant* frame latency -- frames still arrive as fast as the
        network allows, spread by frame size, unlike the EDF pacing."""
        _, collector = four_vc_run
        target = round(10 * units.MS * 0.02)
        stats = collector.get("multimedia")
        assert stats.message_latency.mean < 0.8 * target  # early, not pinned


class TestVcValidation:
    def test_flow_vc_bounded_by_fabric(self, tiny_topology):
        fabric = Fabric(tiny_topology, ARCHITECTURES["advanced-2vc"], FabricParams(n_vcs=2))
        with pytest.raises(ValueError, match="2-VC fabric"):
            fabric.open_flow(0, 1, "x", kind=FlowKind.RATE, vc=3, bw_bytes_per_ns=0.1)

    def test_single_vc_fabric_works(self, tiny_topology):
        fabric = Fabric(
            tiny_topology, ARCHITECTURES["advanced-2vc"], FabricParams(n_vcs=1)
        )
        flow = fabric.open_flow(0, 9, "x", kind=FlowKind.CONTROL, vc=0)
        got = []
        fabric.subscribe_delivery(lambda p, t: got.append(p))
        fabric.submit(flow, 1000)
        fabric.run(until=100 * units.US)
        assert len(got) == 1

    def test_bad_vc_count(self):
        with pytest.raises(ValueError):
            FabricParams(n_vcs=0)
