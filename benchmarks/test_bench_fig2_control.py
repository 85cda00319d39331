"""Figure 2: Control-traffic latency under the four architectures.

Regenerates both panels -- average latency vs input load, and the
latency CDF at full load -- and asserts the figure's qualitative content:
the EDF-based architectures dominate the traditional switch by a large
factor, with Ideal <= Advanced <= Simple.

The benchmark times the full-load Advanced run (the paper's headline
configuration).
"""

from __future__ import annotations

import pytest

from conftest import LOADS, MEASURE_NS, TIME_SCALE, WARMUP_NS
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.figures import DEFAULT_ARCHS, fig2_control
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def results(standard_sweep):
    return standard_sweep


def test_bench_fig2_control_latency(benchmark, results, bench_topology, bench_seed):
    config = ExperimentConfig(
        architecture="advanced-2vc",
        load=1.0,
        seed=bench_seed,
        topology=bench_topology,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        mix=scaled_video_mix(1.0, TIME_SCALE),
    )
    benchmark.pedantic(run_experiment, args=(config,), rounds=1, iterations=1)

    series = fig2_control(
        DEFAULT_ARCHS, LOADS, results=results, cdf_points=10
    )
    print()
    print(series.text())

    def mean(arch, load=max(LOADS)):
        return results[(arch, load)].get("control").message_latency.mean

    # Figure 2's content: EDF >> traditional; ideal <= advanced <= simple.
    for arch in ("ideal", "simple-2vc", "advanced-2vc"):
        assert mean(arch) * 2 < mean("traditional-2vc")
    assert mean("ideal") <= mean("advanced-2vc") * 1.02
    assert mean("advanced-2vc") <= mean("simple-2vc") * 1.02

    # Latency grows with load for every architecture (left panel's shape).
    for arch in DEFAULT_ARCHS:
        assert mean(arch, LOADS[0]) <= mean(arch, LOADS[-1])


def test_bench_fig2_cdf_tails(benchmark, results):
    """Right panel: 'maximum latency values are almost the same for Ideal
    and Advanced 2 VCs' -- the CDFs' closing edges nearly coincide."""

    def tails():
        out = {}
        for arch in DEFAULT_ARCHS:
            cdf = results[(arch, max(LOADS))].get("control").message_cdf()
            out[arch] = (cdf.quantile(0.5), cdf.quantile(0.99), cdf.max)
        return out

    quantiles = benchmark.pedantic(tails, rounds=1, iterations=1)
    print()
    for arch, (p50, p99, top) in quantiles.items():
        print(f"  {arch:<16} p50 {p50 / 1e3:8.1f} us   p99 {p99 / 1e3:8.1f} us   max {top / 1e3:8.1f} us")
    assert quantiles["advanced-2vc"][1] <= quantiles["ideal"][1] * 1.3
    assert quantiles["traditional-2vc"][1] > quantiles["advanced-2vc"][1]
