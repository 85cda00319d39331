"""Tests for RunSummary extraction: pickling, parity, serialization."""

import dataclasses
import json
import math
import pickle

import pytest

from repro.exec.summary import (
    DEFAULT_CDF_SAMPLES,
    FrozenStats,
    RunSummary,
    downsample_sorted,
    execute_config,
    summarize_run,
)
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.export import result_to_json
from repro.experiments.runner import run_experiment
from repro.sim import units
from repro.stats.running import RunningStats


def quick_config(**overrides):
    defaults = dict(
        architecture="advanced-2vc",
        load=0.5,
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
        mix=scaled_video_mix(0.5, time_scale=0.02),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def run_pair():
    """(RunResult, RunSummary) of the same seeded run.

    The tiny run stays far below DEFAULT_CDF_SAMPLES, so the summary
    keeps the *exact* reservoirs and quantiles must match bit-for-bit.
    """
    result = run_experiment(quick_config())
    return result, summarize_run(result)


class TestDownsample:
    def test_exact_below_cap(self):
        values = tuple(float(v) for v in range(100))
        assert downsample_sorted(values, 100) == values
        assert downsample_sorted(values, 5000) == values

    def test_keeps_min_and_max(self):
        values = tuple(float(v) for v in range(1000))
        down = downsample_sorted(values, 64)
        assert len(down) == 64
        assert down[0] == values[0]
        assert down[-1] == values[-1]

    def test_monotone(self):
        values = tuple(float(v) ** 1.5 for v in range(777))
        down = downsample_sorted(values, 33)
        assert list(down) == sorted(down)

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ValueError):
            downsample_sorted((1.0, 2.0, 3.0), 1)

    def test_empty_passthrough(self):
        assert downsample_sorted((), 16) == ()


class TestFrozenStats:
    def test_empty_stats_round_trip_through_json_dict(self):
        frozen = FrozenStats.from_running(RunningStats())
        assert frozen.min == math.inf and frozen.max == -math.inf
        doc = frozen.to_dict()
        assert doc["min"] is None and doc["max"] is None
        assert FrozenStats.from_dict(doc) == frozen

    def test_mirrors_running_stats(self):
        running = RunningStats()
        for v in (1.0, 2.0, 4.0):
            running.add(v)
        frozen = FrozenStats.from_running(running)
        assert frozen.count == 3
        assert frozen.mean == running.mean
        assert frozen.std == running.std
        assert frozen.min == 1.0 and frozen.max == 4.0


class TestSummaryParity:
    """Summary metrics must equal the live RunResult's, bit-for-bit."""

    def test_class_counters(self, run_pair):
        result, summary = run_pair
        for tclass, stats in result.collector.classes.items():
            frozen = summary.get(tclass)
            assert frozen.packets == stats.packets
            assert frozen.bytes == stats.bytes
            assert frozen.messages == stats.messages

    def test_latency_and_jitter_stats(self, run_pair):
        result, summary = run_pair
        for tclass, stats in result.collector.classes.items():
            frozen = summary.get(tclass)
            assert frozen.packet_latency.mean == stats.packet_latency.mean
            assert frozen.message_latency.mean == stats.message_latency.mean
            assert frozen.message_latency.max == stats.message_latency.max
            assert frozen.jitter.std == stats.jitter.std

    def test_quantiles_exact_in_small_runs(self, run_pair):
        result, summary = run_pair
        compared = 0
        for tclass in result.collector.classes:
            if not summary.get(tclass).message_samples:
                # no completed messages (e.g. video frames cut off by the
                # tiny window): the live CDF is equally empty
                with pytest.raises(ValueError):
                    result.collector.get(tclass).message_cdf()
                continue
            live = result.collector.get(tclass).message_cdf()
            frozen = summary.get(tclass).message_cdf()
            for q in (0.5, 0.9, 0.99):
                assert frozen.quantile(q) == live.quantile(q)
            compared += 1
        assert compared > 0

    def test_throughput_matches(self, run_pair):
        result, summary = run_pair
        fabric = result.fabric
        for tclass in result.collector.classes:
            delivered = result.collector.throughput(tclass)
            assert summary.throughput(tclass) == delivered
            offered = fabric.topology.n_hosts * result.config.mix_config.class_rate(
                tclass, fabric.params.bytes_per_ns
            )
            assert summary.normalized_throughput(tclass) == pytest.approx(delivered / offered)

    def test_run_metadata(self, run_pair):
        result, summary = run_pair
        assert summary.config == result.config
        assert summary.events_executed == result.events_executed
        assert summary.n_hosts == result.fabric.topology.n_hosts
        assert summary.window_ns == result.collector.window_ns


class TestSummarySurface:
    def test_collector_shim(self, run_pair):
        # the shim is gone: a summary is read through get(), and only the
        # live RunResult has a collector
        _, summary = run_pair
        assert not hasattr(summary, "collector")
        assert summary.get("control").packets > 0

    def test_missing_class_keyerror_names_known_classes(self, run_pair):
        _, summary = run_pair
        with pytest.raises(KeyError, match="telepathy.*classes seen"):
            summary.get("telepathy")

    def test_printed_load_is_the_load_that_ran(self, run_pair):
        # an explicit mix decides the load (test_config.py::test_explicit_mix_wins),
        # so that is the load a run is labelled with: 50 % here, whatever `load` says
        _, summary = run_pair
        relabelled = dataclasses.replace(summary, config=summary.config.with_(load=0.3))
        assert "load=50%" in relabelled.table()
        assert json.loads(result_to_json(relabelled))["load"] == 0.5

    def test_ensure_summary_idempotent(self, run_pair):
        result, summary = run_pair
        assert summarize_run(result) == summary
        assert summarize_run(result) == summary


class TestSerialization:
    def test_pickle_round_trip_equality(self, run_pair):
        _, summary = run_pair
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        assert clone.get("control").message_cdf().quantile(0.5) == summary.get(
            "control"
        ).message_cdf().quantile(0.5)

    def test_pickle_is_compact(self, run_pair):
        # the whole point: kilobytes across the process boundary, not
        # the simulation graph
        _, summary = run_pair
        assert len(pickle.dumps(summary)) < 512 * 1024

    def test_dict_round_trip_equality(self, run_pair):
        _, summary = run_pair
        assert RunSummary.from_dict(summary.to_dict()) == summary

    def test_from_dict_rejects_wrong_schema(self, run_pair):
        _, summary = run_pair
        doc = summary.to_dict()
        doc["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunSummary.from_dict(doc)


class TestExecuteConfig:
    def test_matches_run_experiment(self, run_pair):
        result, summary = run_pair
        executed = execute_config(quick_config())
        # wall_seconds is real time and differs run to run; everything
        # simulated must be identical
        assert executed.classes == summary.classes
        assert executed.events_executed == summary.events_executed
        assert executed.config == summary.config

    def test_obs_snapshot_on_request(self):
        config = quick_config(measure_ns=100 * units.US)
        bare = execute_config(config)
        observed = execute_config(config, collect_obs=True)
        assert bare.obs is None
        assert isinstance(observed.obs, dict) and observed.obs
        assert observed.classes == bare.classes

    def test_cdf_samples_cap_applies(self):
        config = quick_config(measure_ns=100 * units.US)
        capped = execute_config(config, cdf_samples=8)
        stats = capped.get("control")
        assert 0 < len(stats.packet_samples) <= 8
        assert capped.to_dict()  # still serializes
