"""Tests for the traffic sources (control, CBR, video, self-similar)."""

import random

import pytest

from repro.constants import VC_BEST_EFFORT, VC_REGULATED
from repro.sim import units
from repro.traffic.cbr import CbrSource
from repro.traffic.control import ControlSource
from repro.traffic.multimedia import VideoStream
from repro.traffic.selfsimilar import SelfSimilarSource


@pytest.fixture
def fabric(make_fabric):
    return make_fabric("advanced-2vc")


class TestCbr:
    def test_deterministic_period(self, fabric):
        source = CbrSource(fabric, 0, 5, 0.5, message_bytes=1000)
        source.start(at=0)
        fabric.run(until=10_000)
        # One message every 2000 ns: t=0, 2000, ..., 10000.
        assert source.messages_generated == 6

    def test_rate_calibration(self, fabric):
        source = CbrSource(fabric, 0, 5, 0.25, message_bytes=2048)
        source.start(at=0)
        fabric.run(until=1_000_000)
        assert source.offered_bytes_per_ns(1_000_000) == pytest.approx(0.25, rel=0.02)

    def test_stop(self, fabric):
        source = CbrSource(fabric, 0, 5, 0.5, message_bytes=1000)
        source.start(at=0)
        fabric.run(until=5_000)
        source.stop()
        count = source.messages_generated
        fabric.run(until=50_000)
        assert source.messages_generated == count

    def test_double_start_rejected(self, fabric):
        source = CbrSource(fabric, 0, 5, 0.5)
        source.start(at=0)
        with pytest.raises(RuntimeError):
            source.start(at=0)

    def test_restart_runs_one_tick_chain(self, fabric):
        """A start() before the stopped chain's pending tick fires must not
        leave that chain alive beside the new one."""
        sent = []
        original = fabric.submit
        fabric.submit = lambda flow, nbytes: (sent.append(fabric.engine.now), original(flow, nbytes))
        source = CbrSource(fabric, 0, 5, 0.1, message_bytes=1000)  # one per 10 us
        source.start(at=0)
        fabric.run(until=25_000)
        source.stop()
        source.start()
        fabric.run(until=125_000)
        assert sent == [0, 10_000, 20_000] + list(range(25_000, 125_001, 10_000))
        assert source.messages_generated == 14

    def test_invalid_source_host(self, fabric):
        with pytest.raises(ValueError):
            CbrSource(fabric, 99, 5, 0.5)


class TestControl:
    def test_rate_calibration(self, fabric):
        source = ControlSource(fabric, 0, 0.25, random.Random(1))
        source.start(at=0)
        fabric.run(until=2_000_000)
        assert source.offered_bytes_per_ns(2_000_000) == pytest.approx(0.25, rel=0.15)

    def test_sizes_within_table1_range(self, fabric):
        source = ControlSource(fabric, 0, 0.5, random.Random(2))
        sizes = []
        fabric.subscribe_delivery(lambda p, t: sizes.append(p.size))
        source.start(at=0)
        fabric.run(until=500_000)
        assert sizes
        assert all(1 <= s <= 2048 for s in sizes)

    def test_never_targets_self(self, fabric):
        source = ControlSource(fabric, 3, 0.5, random.Random(3))
        dsts = []
        fabric.subscribe_delivery(lambda p, t: dsts.append(p.dst))
        source.start(at=0)
        fabric.run(until=500_000)
        assert dsts
        assert 3 not in dsts

    def test_shared_virtual_clock_across_destinations(self, fabric):
        """All control flows of one host chain deadlines on one record."""
        source = ControlSource(fabric, 0, 0.5, random.Random(4))
        source.start(at=0)
        fabric.run(until=200_000)
        flows = list(source._flows.values())
        assert len(flows) > 1
        assert all(f.stamper is source.stamper for f in flows)

    def test_control_rides_regulated_vc(self, fabric):
        source = ControlSource(fabric, 0, 0.25, random.Random(5))
        vcs = set()
        fabric.subscribe_delivery(lambda p, t: vcs.add(p.vc))
        source.start(at=0)
        fabric.run(until=200_000)
        assert vcs == {VC_REGULATED}


class TestVideo:
    def test_frame_cadence(self, fabric):
        stream = VideoStream(
            fabric, 0, 5, random.Random(6),
            rate_bytes_per_ns=0.01, fps=1000.0, target_latency_ns=200_000,
        )
        stream.start(at=0)
        fabric.run(until=10_000_000)  # 10 ms = 10 frame periods at 1000 fps
        assert stream.frames_sent == 11  # t=0 through t=10ms inclusive

    def test_rate_calibration(self, fabric):
        stream = VideoStream(
            fabric, 0, 5, random.Random(7),
            rate_bytes_per_ns=0.02, fps=2000.0, target_latency_ns=100_000,
        )
        stream.start(at=0)
        fabric.run(until=50_000_000)
        rate = stream.offered_bytes_per_ns(50_000_000)
        assert rate == pytest.approx(0.02, rel=0.15)

    def test_reserves_bandwidth(self, fabric):
        VideoStream(fabric, 0, 5, random.Random(8), rate_bytes_per_ns=0.01)
        assert fabric.admission.reservation_count == 1

    def test_random_start_phase_within_one_period(self, fabric):
        stream = VideoStream(
            fabric, 0, 5, random.Random(9),
            rate_bytes_per_ns=0.01, fps=1000.0,
        )
        stream.start()
        fabric.run(until=1_000_000)  # one frame period
        assert stream.frames_sent >= 1

    def test_validation(self, fabric):
        with pytest.raises(ValueError):
            VideoStream(fabric, 0, 5, random.Random(0), rate_bytes_per_ns=0)
        with pytest.raises(ValueError):
            VideoStream(fabric, 0, 5, random.Random(0), fps=0)


class TestSelfSimilar:
    def test_compensating_rate_is_exact(self, fabric):
        source = SelfSimilarSource(fabric, 0, 0.25, random.Random(10))
        source.start(at=0)
        fabric.run(until=5_000_000)
        assert source.offered_bytes_per_ns(5_000_000) == pytest.approx(0.25, rel=0.05)

    def test_pareto_gap_mode_generates_heavy_tailed_gaps(self, fabric):
        """The alternative gap mode draws unbounded Pareto gaps: over many
        draws the max/median ratio far exceeds an exponential's."""
        source = SelfSimilarSource(
            fabric, 0, 0.25, random.Random(21), gap_mode="pareto"
        )
        gaps = sorted(
            source._emit() or 0.0  # _emit returns the next gap
            for _ in range(2000)
        )
        median = gaps[len(gaps) // 2]
        assert gaps[-1] / median > 10  # exponential would be ~7 at n=2000

    def test_rides_best_effort_vc(self, fabric):
        source = SelfSimilarSource(fabric, 0, 0.25, random.Random(11))
        vcs = set()
        fabric.subscribe_delivery(lambda p, t: vcs.add(p.vc))
        source.start(at=0)
        fabric.run(until=500_000)
        assert vcs == {VC_BEST_EFFORT}

    def test_no_reservation(self, fabric):
        SelfSimilarSource(fabric, 0, 0.25, random.Random(12))
        assert fabric.admission.reservation_count == 0

    def test_burst_sizes_within_table1_range(self, fabric):
        source = SelfSimilarSource(fabric, 0, 0.5, random.Random(13))
        source.start(at=0)
        fabric.run(until=1_000_000)
        # messages are segmented; reconstruct via generator accounting
        assert source.messages_generated > 0
        mean_burst = source.bytes_generated / source.messages_generated
        assert 128 <= mean_burst <= 102_400

    def test_shared_class_record(self, fabric):
        source = SelfSimilarSource(fabric, 0, 0.5, random.Random(14))
        source.start(at=0)
        fabric.run(until=2_000_000)
        flows = list(source._flows.values())
        assert len(flows) > 1
        assert all(f.stamper is source.stamper for f in flows)

    def test_bad_gap_mode(self, fabric):
        with pytest.raises(ValueError):
            SelfSimilarSource(fabric, 0, 0.25, random.Random(0), gap_mode="bogus")
