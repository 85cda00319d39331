"""Build-run-measure for one experiment configuration."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import ExperimentConfig
from repro.experiments.presets import make_topology
from repro.network.fabric import Fabric
from repro.sim.rng import RandomStreams
from repro.stats.collectors import MetricsCollector
from repro.traffic.mix import TrafficMix, build_mix

if TYPE_CHECKING:  # repro.obs loads only for the runs that observe
    from repro.obs.telemetry import RunTelemetry

__all__ = ["RunResult", "run_experiment"]


@dataclass
class RunResult:
    """The live handles of one finished run, for code that inspects the
    simulation itself (link utilization, span blame).  Its numbers are read
    through :func:`repro.exec.summary.summarize_run`, and only there."""

    config: ExperimentConfig
    collector: MetricsCollector
    fabric: Fabric
    mix: TrafficMix
    events_executed: int
    wall_seconds: float
    #: Observability extras (populated when the caller opts in).
    metrics: Optional[object] = None
    telemetry: Optional[RunTelemetry] = None
    tracer: Optional[object] = None


def run_experiment(
    config: ExperimentConfig,
    *,
    metrics=None,
    trace=None,
    tracer=None,
    heartbeat_ns: Optional[int] = None,
    live_progress: bool = False,
    engine_factory: Optional[Callable[[], object]] = None,
) -> RunResult:
    """Run one configuration to completion and gather metrics.

    Deterministic in ``config`` (including the seed): repeated calls
    return identical statistics.  Observability is opt-in: pass a
    :class:`repro.obs.MetricsRegistry` as ``metrics``, a
    :class:`repro.sim.monitor.Trace` as ``trace``, and/or a
    :class:`repro.obs.tracing.PacketTracer` as ``tracer`` to instrument
    the run, and a ``heartbeat_ns`` to sample telemetry on that
    simulated-time interval (``live_progress`` additionally prints a
    stderr status line).  The fabric folds the three sinks into one
    :class:`repro.obs.observer.FabricObserver`; off is ``None``, and a
    run that asks for nothing imports none of :mod:`repro.obs`.  None of
    these change simulation results -- observers only read
    (``tests/obs/test_observer_equivalence.py``).

    ``engine_factory`` swaps the event kernel: it is the seam through
    which ``tests/sim/test_engine_differential.py`` substitutes its
    binary-heap oracle (``tests/sim/heap_engine.py``) for the one engine
    ``src/`` ships; results must be byte-identical for any conforming
    engine.

    A run does not pay the cycle collector.  It builds 10^5 long-lived
    objects (flows, VOQs, packets) and makes no cyclic garbage
    (``tests/experiments/test_runner.py::TestCycleCollector`` holds every
    architecture and sink to that), so automatic collection would only
    walk them again and again: 0.23 s (12 %) of a ``scale512_cold``
    call, 3-6 % of the other benchmark workloads.  One full
    ``gc.collect()`` on entry frees what earlier runs left behind (a
    finished fabric is a reference cycle: links and nodes point at each
    other, and pre-bound methods point back at their owners); automatic
    collection is then suspended for the build, the run and the
    :class:`RunResult`, what the run built is moved to the oldest
    generation untraversed, and the caller's state is restored on the way
    out, also when the run raises.  A caller that had disabled the
    collector finds it still disabled.
    """
    gc.collect()
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        topology = make_topology(config.topology)
        architecture = ARCHITECTURES[config.architecture]
        # Every in-repo delivery observer copies scalars out of the packet,
        # so delivered-packet storage can be recycled; uids stay fresh per
        # logical packet, keeping results byte-identical with pooling off.
        fabric = Fabric(
            topology,
            architecture,
            config.params,
            engine=engine_factory() if engine_factory is not None else None,
            trace=trace,
            metrics=metrics,
            tracer=tracer,
            packet_pooling=True,
        )
        streams = RandomStreams(config.seed)
        mix = build_mix(fabric, streams, config.mix_config)
        collector = MetricsCollector(warmup_ns=config.warmup_ns)
        fabric.subscribe_delivery(collector.on_delivery)

        telemetry = None
        if heartbeat_ns is not None:
            from repro.obs.telemetry import RunTelemetry

            telemetry = RunTelemetry(
                fabric.engine,
                fabric,
                heartbeat_ns=heartbeat_ns,
                metrics=metrics,
                live=live_progress,
                until_ns=config.end_ns,
            )

        # Benchmark wall-time measurement: this is host time *around* the
        # simulation, never simulated time, so SIM002 documents it instead of
        # forbidding it.
        started = time.perf_counter()  # simlint: allow-wallclock
        mix.start()
        fabric.run(until=config.end_ns)
        mix.stop()
        collector.finalize(fabric.engine.now)
        wall = time.perf_counter() - started  # simlint: allow-wallclock
        if metrics is not None:
            from repro.obs.telemetry import sync_component_totals

            # Lift the always-on component tallies into the registry so the
            # final snapshot carries them even without a heartbeat.
            sync_component_totals(fabric.engine, fabric, metrics)

        return RunResult(
            config=config,
            collector=collector,
            fabric=fabric,
            mix=mix,
            events_executed=fabric.engine.events_executed,
            wall_seconds=wall,
            metrics=metrics,
            telemetry=telemetry,
            tracer=tracer,
        )
    finally:
        # Tenure what the run built: freeze + unfreeze moves every tracked
        # object to the oldest generation by two list splices and zeroes
        # the allocation count, so the caller's next allocation does not
        # walk the whole fabric in a young-generation collection.  Skipped
        # when the caller has frozen objects, which unfreeze would release.
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if collector_was_on:
            gc.enable()
