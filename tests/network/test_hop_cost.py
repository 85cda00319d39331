"""A cost tripwire for a packet hop that reads no clock.

Every figure the paper draws is a steady-state average over packet hops,
and what a hop costs in CPython is, to first order, how many
Python-level calls it makes: a link transmit, the arbitration that chose
the packet, the queue operations, the credit return, the delivery.  This
runs the Table 1 mix (video compressed 50x) at load 0.9 on ``small``,
seed 1, 50 us of warm-up and a 250 us window, under ``cProfile`` and
divides the profiler-visible calls (Python frames and C functions alike,
fabric construction and traffic setup included) by the link transmits.
The figure is exact at a fixed seed, so a helper called per hop, or a
frame put back between the switch and its link, fails here instead of
waiting for a benchmark.

Measured on CPython 3.11 at commit ``709ea12``: 73.4 calls per transmit
(``advanced-2vc``) and 75.9 (``traditional-2vc``).  With the credit
arithmetic, the serialization time, the head comparisons and the queue
byte accounting done where the hop already is (docs/ARCHITECTURE.md
section 10, "Hot-path call shape"): 61.6 and 63.4.  The ceilings are
those figures + 10 %.
"""

import cProfile
import pstats

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.sim import units


def _calls_per_transmit(architecture: str) -> float:
    config = ExperimentConfig(
        architecture=architecture,
        load=0.9,
        seed=1,
        topology="small",
        warmup_ns=50 * units.US,
        measure_ns=250 * units.US,
        mix=scaled_video_mix(0.9, 0.02),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_experiment(config)
    profiler.disable()
    transmits = sum(link.packets_carried for link in result.fabric.links.values())
    assert transmits > 30_000  # enough hops that set-up is a small share of the calls
    return pstats.Stats(profiler).total_calls / transmits


@pytest.mark.parametrize(
    "architecture,ceiling",
    [
        pytest.param("advanced-2vc", 67.8, id="advanced-2vc"),
        pytest.param("traditional-2vc", 69.7, id="traditional-2vc"),
    ],
)
def test_profiler_visible_calls_per_transmit(architecture, ceiling):
    calls = _calls_per_transmit(architecture)
    assert calls <= ceiling, (
        f"{architecture}: {calls:.1f} profiler-visible calls per link transmit, "
        f"ceiling {ceiling}"
    )
