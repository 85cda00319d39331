"""The paper's Section 5 claims as executable assertions (scaled down).

One shared sweep over the four architectures on the tiny network
(time-scaled video) at a light and at full load, then each claim reads
off it:

- Figure 2: EDF architectures beat Traditional on control latency by a
  large factor; Ideal <= Advanced <= Simple.
- Figure 3: EDF architectures pin video frame latency near the target
  with small jitter; Traditional's frame latency spreads widely.
- Figure 4: EDF differentiates the two best-effort classes by their
  deadline weights; Traditional cannot tell them apart.
- Ablations (DESIGN.md section 5 ``abl-*``): the corner points of the
  grids EXPERIMENTS.md tabulates, beside the sweep's own points.

Scale note: the *shape* claims (orderings, differentiation) are asserted
strictly; the paper's exact 25%/5% overhead factors are workload- and
scale-dependent, so the assertions bound them loosely (EXPERIMENTS.md
records the measured factors at larger scale).
"""

import pytest

from repro.experiments.config import scaled_video_mix
from repro.experiments.figures import run_points, sweep
from repro.network.fabric import FabricParams
from repro.sim import units
from repro.traffic.mix import CLASS_NAMES

ARCHS = ("traditional-2vc", "ideal", "simple-2vc", "advanced-2vc")
TIME_SCALE = 0.02
TARGET_NS = round(10 * units.MS * TIME_SCALE)
# Warm-up must cover the video ramp: streams phase in over one frame
# period (800 us at this scale) and frames take one target (200 us).
WARMUP_NS = 1_100 * units.US
MEASURE_NS = 1_600 * units.US
LIGHT = 0.3


@pytest.fixture(scope="module")
def full_load_results():
    """(architecture, load) -> summary at loads ``LIGHT`` and 1.0."""
    return sweep(
        ARCHS,
        (LIGHT, 1.0),
        topology="tiny",
        seed=5,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        mix_factory=lambda load: scaled_video_mix(load, TIME_SCALE),
    )


def control_mean(results, arch, load=1.0):
    return results[(arch, load)].get("control").message_latency.mean


class TestFigure2Control:
    def test_edf_architectures_far_outperform_traditional(self, full_load_results):
        traditional = control_mean(full_load_results, "traditional-2vc")
        for arch in ("ideal", "simple-2vc", "advanced-2vc"):
            assert control_mean(full_load_results, arch) * 3 < traditional

    def test_ideal_is_the_lower_bound(self, full_load_results):
        ideal = control_mean(full_load_results, "ideal")
        for arch in ("simple-2vc", "advanced-2vc"):
            # Small statistical slack: ideal must not lose meaningfully.
            assert ideal <= control_mean(full_load_results, arch) * 1.02

    def test_advanced_at_most_simple(self, full_load_results):
        advanced = control_mean(full_load_results, "advanced-2vc")
        simple = control_mean(full_load_results, "simple-2vc")
        assert advanced <= simple * 1.02

    def test_overheads_within_paper_magnitudes(self, full_load_results):
        """Paper: Simple ~ +25%, Advanced ~ +5% over Ideal.  At this scale
        the order errors are milder; assert generous upper bounds."""
        ideal = control_mean(full_load_results, "ideal")
        assert control_mean(full_load_results, "simple-2vc") <= 1.4 * ideal
        assert control_mean(full_load_results, "advanced-2vc") <= 1.15 * ideal

    def test_cdf_tail_advanced_close_to_ideal(self, full_load_results):
        """'Maximum latency values are almost the same for Ideal and
        Advanced' -- compare 99th percentiles."""
        ideal = (
            full_load_results[("ideal", 1.0)].get("control")
            .message_cdf().quantile(0.99)
        )
        advanced = (
            full_load_results[("advanced-2vc", 1.0)].get("control")
            .message_cdf().quantile(0.99)
        )
        assert advanced <= ideal * 1.25

    @pytest.mark.parametrize("arch", ARCHS)
    def test_latency_does_not_fall_with_load(self, full_load_results, arch):
        """The left panel's shape, per architecture."""
        light = control_mean(full_load_results, arch, LIGHT)
        assert light <= control_mean(full_load_results, arch)


class TestFigure3Video:
    @pytest.mark.parametrize("arch", ["ideal", "simple-2vc", "advanced-2vc"])
    def test_frame_latency_pinned_at_target(self, full_load_results, arch):
        stats = full_load_results[(arch, 1.0)].get("multimedia")
        assert stats.message_latency.mean == pytest.approx(TARGET_NS, rel=0.15)

    @pytest.mark.parametrize("arch", ["ideal", "advanced-2vc"])
    def test_frame_latency_concentrated(self, full_load_results, arch):
        """Paper: >99% of frames within +/-1 ms of the 10 ms target.  The
        dispersion around the target is *absolute* network queueing (tens
        of microseconds, independent of the video time scale), so at this
        compressed scale we assert the same absolute band the paper's
        claim implies: nearly all frames within target +/- ~150 us."""
        cdf = full_load_results[(arch, 1.0)].get("multimedia").message_cdf()
        slack = 150 * units.US
        within = cdf.prob_leq(TARGET_NS + slack) - cdf.prob_leq(TARGET_NS - slack)
        assert within > 0.95
        # And no frame finishes meaningfully *early*: pacing holds frames
        # until their eligible window.
        assert cdf.quantile(0.01) > 0.8 * TARGET_NS

    def test_traditional_spreads_frame_latency(self, full_load_results):
        """Without deadline pacing, frame latency varies with frame size
        and load: its spread is much wider than the EDF architectures'."""
        spread = {}
        for arch in ("traditional-2vc", "advanced-2vc"):
            cdf = full_load_results[(arch, 1.0)].get("multimedia").message_cdf()
            spread[arch] = (cdf.quantile(0.95) - cdf.quantile(0.05)) / TARGET_NS
        assert spread["traditional-2vc"] > 2 * spread["advanced-2vc"]

    def test_edf_jitter_small(self, full_load_results):
        jitter = full_load_results[("advanced-2vc", 1.0)].get("multimedia").jitter
        assert jitter.mean < 0.2 * TARGET_NS


class TestFigure4BestEffort:
    def test_edf_differentiates_by_weight(self, full_load_results):
        """Best-effort carries twice background's deadline weight, so under
        saturation it must receive measurably more throughput."""
        result = full_load_results[("advanced-2vc", 1.0)]
        be = result.throughput("best-effort")
        bg = result.throughput("background")
        assert be > 1.15 * bg

    def test_traditional_cannot_differentiate(self, full_load_results):
        result = full_load_results[("traditional-2vc", 1.0)]
        be = result.throughput("best-effort")
        bg = result.throughput("background")
        assert be == pytest.approx(bg, rel=0.15)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_light_load_delivers_what_is_offered(self, full_load_results, arch):
        """The figure's left edge: no differentiation is needed yet, the
        curves of both classes start together under every architecture."""
        result = full_load_results[(arch, LIGHT)]
        assert result.normalized_throughput("best-effort") > 0.7
        assert result.normalized_throughput("background") > 0.7

    @pytest.mark.parametrize("arch", ARCHS)
    def test_regulated_classes_get_their_throughput(self, full_load_results, arch):
        """Admitted traffic is never starved: multimedia delivers its
        offered load under every architecture."""
        result = full_load_results[(arch, 1.0)]
        assert result.normalized_throughput("multimedia") > 0.8


@pytest.fixture(scope="module")
def corner_results(full_load_results):
    """The ablation grids' corner points the sweep does not already hold:
    the sweep's own configs with other hardware parameters."""

    def corner(arch, load=1.0, **params):
        return full_load_results[(arch, load)].config.with_(params=FabricParams(**params))

    points = {("unsmoothed", load): corner("advanced-2vc", load, eligible_offset_ns=None)
              for load in (LIGHT, 1.0)}
    for size in (4 * units.KB, 32 * units.KB):
        points["buffer", size] = corner(
            "advanced-2vc", buffer_bytes_per_vc=size, host_buffer_bytes_per_vc=size)
    for arch in ("ideal", "simple-2vc", "advanced-2vc"):
        points["harsh", arch] = corner(
            arch, buffer_bytes_per_vc=32 * units.KB, eligible_offset_ns=None)
    return run_points(points)


class TestAblations:
    def test_unsmoothed_video_tracks_load_not_the_target(self, full_load_results, corner_results):
        """``abl-eligible``: holding packets until ``deadline - 20 us`` is
        what pins frame latency; without it frames arrive early at light
        load, late at full load, and jitter several times more."""
        light = corner_results["unsmoothed", LIGHT].get("multimedia")
        full = corner_results["unsmoothed", 1.0].get("multimedia")
        smoothed = full_load_results[("advanced-2vc", LIGHT)].get("multimedia")
        assert full.message_latency.mean > 1.3 * light.message_latency.mean
        assert full.jitter.mean > 3 * smoothed.jitter.mean

    def test_buffer_size_throttles_then_saturates(self, full_load_results, corner_results):
        """``abl-buffer``: 4 KB/VC (two MTUs) starves the credit loop; the
        paper's 8 KB already delivers most of what 4x the silicon buys."""

        def delivered(result):
            return sum(result.throughput(tclass) for tclass in CLASS_NAMES)

        paper = delivered(full_load_results[("advanced-2vc", 1.0)])
        assert delivered(corner_results["buffer", 4 * units.KB]) < paper
        assert paper > 0.7 * delivered(corner_results["buffer", 32 * units.KB])

    def test_depth_and_bursts_amplify_simple_not_advanced(self, full_load_results, corner_results):
        """``abl-order-error``: order errors need FIFO depth and
        unsmoothed bursts; Simple's penalty over Ideal grows with both,
        the take-over queue keeps Advanced pinned near Ideal."""
        ideal = corner_results["harsh", "ideal"].get("control").message_latency.mean
        harsh = {arch: corner_results["harsh", arch].get("control").message_latency.mean / ideal
                 for arch in ("simple-2vc", "advanced-2vc")}
        gentle = control_mean(full_load_results, "simple-2vc") / control_mean(full_load_results, "ideal")
        assert harsh["simple-2vc"] > gentle + 0.03
        assert harsh["advanced-2vc"] < 1.08
