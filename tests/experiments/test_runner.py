"""Tests for the experiment runner (short windows, tiny topology)."""

import dataclasses
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec.summary import execute_config, summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.network.fabric import Fabric
from repro.sim import units
from repro.sim.engine import Engine
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for


def quick_config(**overrides):
    defaults = dict(
        architecture="advanced-2vc",
        load=0.5,
        seed=3,
        topology="tiny",
        warmup_ns=100 * units.US,
        measure_ns=300 * units.US,
        mix=scaled_video_mix(0.5, time_scale=0.02),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def result():
    return run_experiment(quick_config())


class TestRunExperiment:
    def test_all_classes_observed(self, result):
        assert {"control", "multimedia", "best-effort", "background"} <= set(
            result.collector.classes
        )

    def test_throughput_tracks_offered_at_half_load(self, result):
        for tclass in ("control", "multimedia"):
            assert summarize_run(result).normalized_throughput(tclass) == pytest.approx(
                1.0, abs=0.3
            )

    def test_latency_positive_and_bounded(self, result):
        control = result.collector.get("control")
        assert 0 < control.packet_latency.mean < 100 * units.US

    def test_summary_renders(self, result):
        text = summarize_run(result).table()
        assert "Advanced 2 VCs" in text
        assert "control" in text

    def test_wall_time_and_events_recorded(self, result):
        assert result.events_executed > 0
        assert result.wall_seconds > 0

    def test_offered_uses_configured_rate(self, result):
        offered = summarize_run(result).offered("control")
        # 16 hosts x 0.5 load x 0.25 share x 1 B/ns
        assert offered == pytest.approx(16 * 0.5 * 0.25)


class TestUnobservedRunImports:
    def test_unobserved_run_loads_neither_observers_nor_process_pool(self):
        """Off is ``None``: the network model names no sink, so a run that
        passes none imports none of ``repro.obs``; and reducing it builds
        no pool, so ``repro.exec`` loads no ``multiprocessing``."""
        probe = (
            "import sys\n"
            "from repro.exec.summary import summarize_run\n"
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.experiments.runner import run_experiment\n"
            "config = ExperimentConfig(topology='tiny', warmup_ns=20_000, measure_ns=50_000)\n"
            "assert summarize_run(run_experiment(config)).events_executed > 0\n"
            "lazy = ('repro.obs', 'multiprocessing', 'concurrent.futures.process')\n"
            "loaded = [m for m in sys.modules if m.startswith(lazy)]\n"
            "sys.exit(', '.join(sorted(loaded)) or 0)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, f"an unobserved run imported: {result.stderr}"


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = run_experiment(quick_config(measure_ns=150 * units.US))
        b = run_experiment(quick_config(measure_ns=150 * units.US))
        sa = a.collector.get("control")
        sb = b.collector.get("control")
        assert sa.packets == sb.packets
        assert sa.packet_latency.mean == sb.packet_latency.mean

    def test_back_to_back_runs_mint_identical_uids(self):
        # Regression: uid minting lives on the per-fabric PacketFactory,
        # so a second run in the same process replays the exact uid
        # stream (the old module-global counter kept counting across
        # runs, which broke uid-keyed trace comparison and would have
        # made pooled-packet reuse nondeterministic).
        def run_once():
            uids = []
            config = quick_config(measure_ns=120 * units.US)
            from repro.core.architectures import ARCHITECTURES
            from repro.experiments.presets import make_topology
            from repro.network.fabric import Fabric
            from repro.sim.rng import RandomStreams
            from repro.traffic.mix import build_mix

            fabric = Fabric(
                make_topology(config.topology),
                ARCHITECTURES[config.architecture],
                config.params,
                packet_pooling=True,
            )
            fabric.subscribe_delivery(lambda pkt, now: uids.append(pkt.uid))
            mix = build_mix(fabric, RandomStreams(config.seed), config.mix_config)
            mix.start()
            fabric.run(until=config.end_ns)
            mix.stop()
            return uids

        first = run_once()
        second = run_once()
        assert first, "run delivered no packets; config too short"
        assert first == second

    def test_different_seed_different_results(self):
        a = run_experiment(quick_config(measure_ns=150 * units.US, seed=1))
        b = run_experiment(quick_config(measure_ns=150 * units.US, seed=2))
        assert (
            a.collector.get("control").packet_latency.mean
            != b.collector.get("control").packet_latency.mean
        )


def set_collector(on):
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Restore the cycle collector's state, whatever a test leaves it in."""
    was_on = gc.isenabled()
    yield
    set_collector(was_on)


def observed(tracer_policy):
    """Every sink at once: registry, event ring, span tracer, heartbeat."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import PacketTracer
    from repro.sim.monitor import Trace

    registry = MetricsRegistry()
    return dict(
        metrics=registry,
        trace=Trace(capacity=256),
        tracer=PacketTracer(policy=tracer_policy, rate=1.0, capacity=64, seed=1, metrics=registry),
        heartbeat_ns=25 * units.US,
    )


class TestCycleCollector:
    """``run_experiment`` collects once on entry and suspends automatic
    collection for the run; that is sound only while a run makes no cyclic
    garbage, which nothing else would free inside it."""

    @pytest.mark.parametrize("skew_ns", [0, 500])
    @pytest.mark.parametrize("sinks", ["bare", "tail", "head"])
    @pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
    def test_a_run_makes_no_cyclic_garbage(
        self, monkeypatch, arch, sinks, skew_ns, collector_state
    ):
        """Acyclicity tripwire: a per-event reference cycle added anywhere
        on the run's path (kernel, network, traffic, stats, any sink, TTD
        carriage) leaves unreachable objects here.  The heap is frozen
        first, in place of a first collection: each collection then walks
        only what the run made, however large the test process is."""
        engine_factory = engine_factory_for(monkeypatch, arch)
        config = quick_config(
            architecture=arch,
            warmup_ns=20 * units.US,
            measure_ns=60 * units.US,
            params=dataclasses.replace(quick_config().params, clock_skew_ns=skew_ns),
        )
        sinks = {} if sinks == "bare" else observed(sinks)
        gc.freeze()
        try:
            gc.disable()
            result = run_experiment(config, engine_factory=engine_factory, **sinks)
            assert result.events_executed > 0
            assert gc.collect() == 0
        finally:
            gc.unfreeze()

    @staticmethod
    def probe_engine(seen):
        class ProbeEngine(Engine):
            def run(self, until=None, max_events=None):
                seen.append(gc.isenabled())
                return super().run(until=until, max_events=max_events)

        return ProbeEngine

    @pytest.mark.parametrize("on", [True, False])
    def test_collector_is_off_inside_and_restored_after(self, on, collector_state):
        seen = []
        set_collector(on)
        result = run_experiment(
            quick_config(measure_ns=60 * units.US), engine_factory=self.probe_engine(seen)
        )
        assert seen == [False]
        assert result.events_executed > 0
        assert gc.isenabled() is on

    @pytest.mark.parametrize("on", [True, False])
    def test_collector_state_survives_a_run_that_raises(self, on, collector_state):
        class FailingEngine(Engine):
            def run(self, until=None, max_events=None):
                raise RuntimeError("engine failed")

        set_collector(on)
        with pytest.raises(RuntimeError, match="engine failed"):
            run_experiment(quick_config(), engine_factory=FailingEngine)
        assert gc.isenabled() is on

    def test_what_the_run_built_is_not_young_garbage_to_walk(self, collector_state):
        """The run's objects are tenured on the way out, so the caller's
        next allocation does not set off a young collection that walks the
        whole fabric."""
        gc.enable()
        result = run_experiment(quick_config(measure_ns=60 * units.US))
        assert result.events_executed > 0
        assert gc.get_count()[0] < gc.get_threshold()[0]

    def test_the_callers_frozen_objects_stay_frozen(self, collector_state):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_experiment(quick_config(measure_ns=60 * units.US))
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("on", [True, False])
    def test_back_to_back_runs_free_the_finished_fabrics(self, on, monkeypatch, collector_state):
        """A finished fabric is a reference cycle, so only the collector
        frees it; the entry collection does, before the next run builds.
        With automatic collection on, a large heap (pytest's) rarely
        reaches a full collection between runs; off, it never does."""
        preexisting = None
        left_behind = []

        def engine_factory():
            nonlocal preexisting
            fabrics = [o for o in gc.get_objects() if isinstance(o, Fabric)]
            if preexisting is None:
                preexisting = fabrics
            left_behind.append(sum(not any(f is old for old in preexisting) for f in fabrics))
            return Engine()

        def run_with_probe(config, **kwargs):
            return run_experiment(config, engine_factory=engine_factory, **kwargs)

        monkeypatch.setattr("repro.exec.summary.run_experiment", run_with_probe)
        set_collector(on)
        for _ in range(3):
            execute_config(quick_config(measure_ns=60 * units.US))
        assert left_behind == [0, 0, 0]
