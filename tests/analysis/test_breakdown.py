"""Tests for the latency-decomposition collector."""

import pytest

from tests.analysis.breakdown_oracle import LatencyBreakdown
from tests.helpers import mkpkt


def delivered(*, birth, inject, tclass="control", msg_id=0, msg_seq=0, msg_parts=1, flow_id=1):
    pkt = mkpkt(
        0,
        tclass=tclass,
        birth=birth,
        msg_id=msg_id,
        msg_seq=msg_seq,
        msg_parts=msg_parts,
        flow_id=flow_id,
    )
    pkt.inject = inject
    return pkt


class TestStageAccounting:
    def test_source_hold_and_network_split(self):
        breakdown = LatencyBreakdown()
        breakdown.on_delivery(delivered(birth=0, inject=300), 1000)
        entry = breakdown.get("control")
        assert entry.source_hold.mean == 300
        assert entry.network.mean == 700

    def test_message_spread_measured_on_completion(self):
        breakdown = LatencyBreakdown()
        parts = [
            delivered(birth=0, inject=0, tclass="multimedia", msg_id=5, msg_seq=i, msg_parts=3)
            for i in range(3)
        ]
        breakdown.on_delivery(parts[0], 100)
        breakdown.on_delivery(parts[1], 400)
        entry = breakdown.get("multimedia")
        assert entry.message_spread.count == 0  # incomplete
        breakdown.on_delivery(parts[2], 900)
        assert entry.message_spread.count == 1
        assert entry.message_spread.mean == 800  # 900 - 100

    def test_single_packet_messages_have_no_spread(self):
        breakdown = LatencyBreakdown()
        breakdown.on_delivery(delivered(birth=0, inject=0), 500)
        assert breakdown.get("control").message_spread.count == 0

    def test_warmup_filter(self):
        breakdown = LatencyBreakdown(warmup_ns=1000)
        breakdown.on_delivery(delivered(birth=500, inject=600), 1500)
        assert breakdown.classes == {}

    def test_dominant_stage(self):
        breakdown = LatencyBreakdown()
        breakdown.on_delivery(delivered(birth=0, inject=900), 1000)  # hold-heavy
        breakdown.on_delivery(
            delivered(birth=0, inject=10, tclass="bulk"), 1000
        )  # net-heavy
        assert breakdown.dominant_stage("control") == "source-hold"
        assert breakdown.dominant_stage("bulk") == "network"

    def test_unknown_class_raises(self):
        with pytest.raises(KeyError, match="seen"):
            LatencyBreakdown().get("nope")

    def test_table_renders(self):
        breakdown = LatencyBreakdown()
        breakdown.on_delivery(delivered(birth=0, inject=100), 400)
        text = breakdown.table()
        assert "source hold" in text
        assert "control" in text


class TestEndToEnd:
    def test_smoothing_shows_up_as_source_hold(self, make_fabric):
        """Multimedia's intentional pacing lands in source-hold; control's
        latency is network-dominated -- the split that diagnoses which
        mechanism is responsible for a class's latency."""
        from repro.experiments.config import scaled_video_mix
        from repro.sim.rng import RandomStreams
        from repro.traffic.mix import build_mix

        fabric = make_fabric()
        breakdown = LatencyBreakdown(warmup_ns=100_000)
        fabric.subscribe_delivery(breakdown.on_delivery)
        mix = build_mix(fabric, RandomStreams(8), scaled_video_mix(0.6, 0.02))
        mix.start()
        fabric.run(until=600_000)
        video = breakdown.get("multimedia")
        control = breakdown.get("control")
        assert video.source_hold.mean > 5 * video.network.mean
        assert breakdown.dominant_stage("multimedia") == "source-hold"
        assert breakdown.dominant_stage("control") == "network"
        assert control.source_hold.mean < 10_000  # < 10 us at 60% load
