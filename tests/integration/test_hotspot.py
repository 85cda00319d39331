"""Adversarial hotspot (incast) scenarios.

The paper's QoS promise is isolation: admitted traffic keeps its
guarantees even when unregulated traffic abuses the network.  These
tests build the worst case -- every host blasting best-effort traffic at
one victim destination -- and check that:

- admitted (control / video) flows crossing the hotspot still meet
  their deadlines under the EDF architectures;
- the best-effort aggressors share the victim link without starving any
  single aggressor (EDF over aggregated-flow deadlines is long-run fair);
- the traditional architecture, by contrast, lets the incast hurt the
  QoS classes (which is exactly why the paper exists).
"""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim import units
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for
from tests.traffic.cbr import CbrSource
from tests.stats.per_flow import PerFlowCollector


VICTIM = 0
MEASURE_NS = 800 * units.US


def build_incast(tiny_topology, arch: str, engine=None):
    """All other hosts send best-effort CBR at the victim at full rate;
    one admitted control flow and one admitted video-ish flow cross the
    hotspot."""
    fabric = Fabric(tiny_topology, ARCHITECTURES[arch], engine=engine)
    flows = PerFlowCollector()
    fabric.subscribe_delivery(flows.on_delivery)

    aggressors = []
    for src in range(1, fabric.topology.n_hosts):
        source = CbrSource(
            fabric,
            src,
            VICTIM,
            0.9,  # 90% of link rate each: massive oversubscription of h0
            message_bytes=2048,
            tclass="best-effort",
            vc=1,
        )
        source.start(at=0)
        aggressors.append(source)

    control = fabric.open_flow(5, VICTIM, "control", kind=FlowKind.CONTROL)
    video = fabric.open_flow(
        9,
        VICTIM,
        "multimedia",
        kind=FlowKind.FRAME,
        bw_bytes_per_ns=0.05,
        target_latency_ns=100 * units.US,
        smoothing=True,
    )
    return fabric, flows, control, video


class TestEDFIsolation:
    @pytest.fixture(scope="class", params=["advanced-2vc", "ideal"])
    def incast(self, request):
        from repro.network.topology import build_folded_shuffle_min

        topo = build_folded_shuffle_min(4, 4, 4)
        fabric, flows, control, video = build_incast(topo, request.param)
        # Sprinkle admitted traffic throughout the incast.
        for t in range(0, MEASURE_NS, 50 * units.US):
            fabric.engine.at(t, fabric.submit, control, 256)
        fabric.engine.at(10 * units.US, fabric.submit, video, 40_000)
        fabric.engine.at(410 * units.US, fabric.submit, video, 40_000)
        fabric.run(until=MEASURE_NS)
        return fabric, flows, control, video

    def test_control_unharmed_by_incast(self, incast):
        _, flows, control, _ = incast
        stats = flows.get(control.spec.flow_id)
        assert stats.packets >= 10
        # A control packet to the *victim of the incast* still arrives in
        # ~wire time + bounded VC0 queueing: the whole point of the VCs +
        # EDF design.
        assert stats.latency.max < 60 * units.US

    def test_video_meets_target_through_hotspot(self, incast):
        _, flows, _, video = incast
        stats = flows.get(video.spec.flow_id)
        assert stats.packets == 40  # both 40 KB frames fully delivered
        # Frame pacing holds: last packet ~ target after submission.
        assert stats.latency.max < 160 * units.US

    def test_aggressors_share_without_total_starvation(self, incast):
        fabric, flows, _, _ = incast
        lo, mean, hi = flows.throughput_spread("best-effort", MEASURE_NS)
        assert mean > 0
        # The victim link is ~15x oversubscribed; shares cannot be equal
        # packet-by-packet, but nobody should get literally nothing.
        assert lo > 0
        # And the victim link is kept busy: aggregate ~ link rate minus
        # the admitted traffic crossing it.
        total = sum(
            f.throughput_bytes_per_ns(MEASURE_NS) for f in flows.by_class("best-effort")
        )
        assert total > 0.6


class TestVCIsolationIsUniversal:
    @pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
    def test_two_vcs_isolate_control_from_incast(self, monkeypatch, tiny_topology, arch):
        """When control is the only VC0 traffic, the two-VC split alone
        (common to all four architectures) protects it from a VC1 incast:
        latency stays within a few packet times of the wire minimum.
        EDF's advantage appears when VC0 itself carries a *mix* -- that is
        what Figure 2 and the order-error benches measure."""
        engine = engine_factory_for(monkeypatch, arch)()
        fabric, flows, control, _ = build_incast(tiny_topology, arch, engine)
        for t in range(0, MEASURE_NS, 50 * units.US):
            fabric.engine.at(t, fabric.submit, control, 256)
        fabric.run(until=MEASURE_NS)
        stats = flows.get(control.spec.flow_id)
        assert stats.packets >= 10
        assert stats.latency.mean < 20 * units.US
