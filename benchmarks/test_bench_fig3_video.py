"""Figure 3: Multimedia (video frame) latency.

Regenerates both panels -- average frame latency vs load and the
frame-latency CDF at full load -- and asserts the paper's claims: under
the EDF architectures the average frame latency sits at the configured
target independent of load (the paper's 10 ms, here time-scaled), with
high concentration, while the traditional architecture's frame latency
varies widely (jitter).

Latency here is per video *frame* (full transfer), exactly as the paper
measures it.
"""

from __future__ import annotations

import pytest

from conftest import LOADS, MEASURE_NS, TIME_SCALE, WARMUP_NS
from repro.experiments.config import scaled_video_mix
from repro.experiments.figures import DEFAULT_ARCHS, fig3_video
from repro.sim import units

TARGET_NS = round(10 * units.MS * TIME_SCALE)


@pytest.fixture(scope="module")
def results(standard_sweep):
    return standard_sweep


def test_bench_fig3_frame_latency(benchmark, results):
    series = benchmark.pedantic(
        fig3_video,
        args=(DEFAULT_ARCHS, LOADS),
        kwargs=dict(results=results, cdf_points=10),
        rounds=1,
        iterations=1,
    )
    print()
    print(series.text())

    def stats(arch, load):
        return results[(arch, load)].get("multimedia")

    # EDF architectures: mean frame latency ~ target at every load.
    for arch in ("ideal", "simple-2vc", "advanced-2vc"):
        for load in LOADS:
            mean = stats(arch, load).message_latency.mean
            assert mean == pytest.approx(TARGET_NS, rel=0.2), (arch, load)

    # Concentration: nearly all frames within an absolute ~150 us band of
    # the target (the band is network queueing, independent of scale; at
    # the paper's unscaled 10 ms target it is the +/-1 ms claim).
    slack = 150 * units.US
    for arch in ("ideal", "advanced-2vc"):
        cdf = stats(arch, 1.0).message_cdf()
        within = cdf.prob_leq(TARGET_NS + slack) - cdf.prob_leq(TARGET_NS - slack)
        assert within > 0.9, arch


def test_bench_fig3_traditional_jitter(benchmark, results):
    """'Latency can vary considerably when using Traditional 2 VCs, which
    would introduce a lot of jitter.'"""

    def spreads():
        out = {}
        for arch in DEFAULT_ARCHS:
            cdf = results[(arch, 1.0)].get("multimedia").message_cdf()
            jitter = results[(arch, 1.0)].get("multimedia").jitter
            out[arch] = (cdf.quantile(0.95) - cdf.quantile(0.05), jitter.mean)
        return out

    spread = benchmark.pedantic(spreads, rounds=1, iterations=1)
    print()
    for arch, (width, jitter) in spread.items():
        print(
            f"  {arch:<16} 5-95% spread {width / 1e3:8.1f} us   "
            f"inter-frame jitter {jitter / 1e3:7.1f} us"
        )
    assert spread["traditional-2vc"][0] > 2 * spread["advanced-2vc"][0]
    assert spread["traditional-2vc"][1] > spread["advanced-2vc"][1]
