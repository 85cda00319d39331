"""The Section 3.4 / Section 5 headline numbers.

The paper's summary claim: emulating EDF with plain FIFOs (*Simple*)
costs ~25% extra average latency for the most demanding traffic due to
order errors; adding the take-over queue (*Advanced*) cuts that to ~5%;
and both are far cheaper than the unimplementable heap (*Ideal*) that
they track.

This bench regenerates those ratios from the shared full-load sweep and
prints them next to the paper's numbers.  The asserted bounds are
deliberately looser than the paper's exact factors: order-error
magnitude depends on workload details and network scale (EXPERIMENTS.md
tabulates paper-vs-measured), but the *ordering* -- Ideal <= Advanced <=
Simple << Traditional -- is asserted strictly.
"""

from __future__ import annotations

from conftest import LOADS
from repro.experiments.figures import order_error_penalties


def test_bench_order_error_penalties(benchmark, standard_sweep):
    penalties = benchmark.pedantic(
        order_error_penalties,
        kwargs=dict(load=max(LOADS), results=standard_sweep),
        rounds=1,
        iterations=1,
    )
    paper = {
        "ideal": 1.0,
        "simple-2vc": 1.25,
        "advanced-2vc": 1.05,
        "traditional-2vc": float("nan"),
    }
    print()
    print("Control-traffic mean latency relative to Ideal at full load:")
    print(f"  {'architecture':<18} {'measured':>9}   paper")
    for arch, factor in penalties.items():
        print(f"  {arch:<18} x{factor:8.3f}   x{paper[arch]:.2f}")

    assert penalties["ideal"] == 1.0
    # Ordering is the paper's claim; magnitudes are workload-dependent.
    assert 0.98 <= penalties["advanced-2vc"] <= penalties["simple-2vc"] * 1.02
    assert penalties["simple-2vc"] <= 1.4  # paper: 1.25
    assert penalties["advanced-2vc"] <= 1.15  # paper: 1.05
    assert penalties["traditional-2vc"] > 2.0


def test_bench_order_error_rate(benchmark, standard_sweep):
    """Quantify order errors directly: the fraction of deliveries whose
    network latency exceeded what the Ideal architecture achieved at the
    same percentile (a distribution-level view of 'scheduler picked the
    wrong packet')."""

    def tail_excess():
        out = {}
        ideal_cdf = (
            standard_sweep[("ideal", max(LOADS))].get("control").message_cdf()
        )
        for arch in ("simple-2vc", "advanced-2vc"):
            cdf = (
                standard_sweep[(arch, max(LOADS))].get("control").message_cdf()
            )
            # P(latency > ideal's p95): 0.05 means identical distributions.
            out[arch] = 1.0 - cdf.prob_leq(ideal_cdf.quantile(0.95))
        return out

    excess = benchmark.pedantic(tail_excess, rounds=1, iterations=1)
    print()
    for arch, p in excess.items():
        print(f"  {arch:<16} P(latency > ideal p95) = {p:.3f}  (0.050 = no order errors)")
    # Advanced's tail must be at least as close to ideal as Simple's.
    assert excess["advanced-2vc"] <= excess["simple-2vc"] + 0.01
