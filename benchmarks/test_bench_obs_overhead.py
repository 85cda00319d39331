"""Overhead guard for the observability layer.

The contract (ARCHITECTURE.md section 8): ``Switch`` and ``Host`` report
each packet-lifecycle point to one ``obs`` handle under one ``is not
None`` guard, and a run that asks for no sink gets no handle at all.

- ``test_disabled_path_is_inert`` proves it *structurally*: every
  :class:`~repro.obs.observer.FabricObserver` hook (and its constructor)
  is booby-trapped and a full experiment still runs, so the disabled hot
  path provably never observes.  Tier-1 has the same proof from the other
  side (``tests/obs/test_observer_equivalence.py``: every component of a
  default fabric holds ``None``).
- ``test_bench_run_disabled`` / ``test_bench_run_enabled`` time the two
  paths under pytest-benchmark so regressions show up in CI history.
- ``test_enabled_overhead_is_bounded`` sanity-checks in-process that a
  fully instrumented run (registry + heartbeat + ring trace) stays
  within a loose multiple of the disabled run -- a tripwire for
  accidentally quadratic instrumentation, not a precise budget.
- ``test_bench_run_traced_head_1pct`` records (but does not gate) the
  tracing-enabled cost at the documented 1% head-sampling operating
  point, so pytest-benchmark history tracks it.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import FabricObserver
from repro.obs.tracing import PacketTracer
from repro.sim import units
from repro.sim.monitor import Trace

TIME_SCALE = 0.02
WARMUP_NS = 50 * units.US
MEASURE_NS = 200 * units.US


def _config(seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        architecture="advanced-2vc",
        load=1.0,
        seed=seed,
        topology="tiny",
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        mix=scaled_video_mix(1.0, TIME_SCALE),
    )


def test_disabled_path_is_inert(monkeypatch):
    """With no sink requested, no observer exists and no hook ever fires."""
    hooks = ("meter_pickers", "submit", "release", "inject", "deliver", "enqueue", "forward")
    for hook in ("__init__", *hooks):

        def boom(self, *args, _hook=hook, **kwargs):  # pragma: no cover - must never run
            raise AssertionError(f"FabricObserver.{_hook} called on the disabled path")

        monkeypatch.setattr(FabricObserver, hook, boom)
    result = run_experiment(_config())
    assert result.metrics is None and result.tracer is None
    assert result.events_executed > 10_000


def test_bench_run_disabled(benchmark):
    result = benchmark(lambda: run_experiment(_config()))
    assert result.events_executed > 10_000


def test_bench_run_enabled(benchmark):
    def run():
        return run_experiment(
            _config(),
            metrics=MetricsRegistry(),
            trace=Trace(capacity=10_000, ring=True),
            heartbeat_ns=50 * units.US,
        )

    result = benchmark(run)
    assert result.metrics is not None
    assert len(result.metrics) > 10


@pytest.mark.benchmark(disable_gc=False)
def test_enabled_overhead_is_bounded():
    """Full instrumentation must stay within a loose multiple of the
    disabled path.  Deliberately generous (noise-proof): it exists to
    catch pathological instrumentation, not to police the 3% budget --
    pytest-benchmark history does that.
    """

    def wall(run):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()  # simlint: allow-wallclock
            run()
            best = min(best, time.perf_counter() - t0)  # simlint: allow-wallclock
        return best

    disabled = wall(lambda: run_experiment(_config()))
    enabled = wall(
        lambda: run_experiment(
            _config(),
            metrics=MetricsRegistry(),
            trace=Trace(capacity=10_000, ring=True),
            heartbeat_ns=50 * units.US,
        )
    )
    assert enabled < disabled * 2.5, (
        f"instrumented run {enabled:.3f}s vs disabled {disabled:.3f}s "
        f"(ratio {enabled / disabled:.2f}) -- instrumentation cost blew up"
    )


def test_bench_run_traced_head_1pct(benchmark):
    """Recorded, not gated: tracing enabled at the documented 1%
    head-sampling operating point.  pytest-benchmark history is the
    regression tripwire for the enabled path."""

    def run():
        return run_experiment(
            _config(),
            tracer=PacketTracer(policy="head", rate=0.01, capacity=4096, seed=1),
        )

    result = benchmark(run)
    assert result.tracer is not None
    assert result.tracer.sampled > 0
    assert result.tracer.completed > 0
