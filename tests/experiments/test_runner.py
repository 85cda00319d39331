"""Tests for the experiment runner (short windows, tiny topology)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec.summary import summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.sim import units


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
