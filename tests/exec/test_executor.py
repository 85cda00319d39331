"""Tests for SweepExecutor: determinism, ordering, cache, failure modes."""

import os
import time

import pytest

from repro.exec.executor import SweepExecutor, SweepTaskError
from repro.exec.summary import execute_config
from repro.experiments.config import ExperimentConfig
from repro.sim import units


def quick_config(**overrides):
    defaults = dict(
        architecture="ideal",
        load=0.4,
        topology="tiny",
        warmup_ns=40 * units.US,
        measure_ns=100 * units.US,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


GRID = [
    quick_config(architecture="ideal"),
    quick_config(architecture="simple-2vc"),
    quick_config(architecture="advanced-2vc"),
]


# Failure-injection workers: top-level so the pool can pickle them.
def _boom(config, *, collect_obs):
    if config.architecture == "simple-2vc":
        raise RuntimeError("injected failure")
    return execute_config(config, collect_obs=collect_obs)


def _die(config, *, collect_obs):
    if config.architecture == "simple-2vc":
        os._exit(13)  # kill the worker process without a traceback
    return execute_config(config, collect_obs=collect_obs)


def _sleepy(config, *, collect_obs):
    time.sleep(60.0)
    return execute_config(config, collect_obs=collect_obs)


def strip_wall(summary):
    """Everything but wall_seconds (real time; varies run to run)."""
    doc = summary.to_dict()
    doc.pop("wall_seconds")
    return doc


class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = SweepExecutor(jobs=1).run(GRID)
        parallel = SweepExecutor(jobs=2).run(GRID)
        assert [strip_wall(s) for s in serial] == [strip_wall(s) for s in parallel]

    def test_results_align_with_submission_order(self):
        summaries = SweepExecutor(jobs=2).run(GRID)
        assert [s.config.architecture for s in summaries] == [
            c.architecture for c in GRID
        ]

    def test_duplicate_configs_coalesce(self):
        executor = SweepExecutor(jobs=1)
        first, second = executor.run([GRID[0], GRID[0]])
        assert first is second
        assert executor.stats()["executed"] == 1


class TestValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_empty_batch(self):
        executor = SweepExecutor(jobs=2)
        assert executor.run([]) == []
        assert executor.stats()["tasks"] == 0


class TestCacheIntegration:
    def test_warm_run_executes_nothing(self, tmp_path):
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        first = cold.run(GRID)
        assert cold.stats() == {
            "tasks": 3,
            "cache_hits": 0,
            "executed": 3,
            "jobs": 1,
        }
        warm = SweepExecutor(jobs=2, cache_dir=tmp_path)
        second = warm.run(GRID)
        assert warm.stats() == {
            "tasks": 3,
            "cache_hits": 3,
            "executed": 0,
            "jobs": 2,
        }
        assert second == first  # replay is exact, wall_seconds included

    def test_interrupted_campaign_resumes(self, tmp_path):
        # simulate an interrupt: only the first point made it to disk
        partial = SweepExecutor(jobs=1, cache_dir=tmp_path)
        partial.run(GRID[:1])
        resumed = SweepExecutor(jobs=1, cache_dir=tmp_path)
        resumed.run(GRID)
        assert resumed.stats()["cache_hits"] == 1
        assert resumed.stats()["executed"] == 2

    def test_option_changes_miss_the_cache(self, tmp_path):
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(GRID[:1])
        other = SweepExecutor(jobs=1, cache_dir=tmp_path, collect_obs=True)
        other.run(GRID[:1])
        assert other.stats()["executed"] == 1  # different digest, no alias


class TestFailureModes:
    def test_serial_worker_failure_wraps(self):
        executor = SweepExecutor(jobs=1, worker=_boom)
        with pytest.raises(SweepTaskError) as excinfo:
            executor.run(GRID)
        err = excinfo.value
        assert err.kind == SweepTaskError.FAILED
        assert err.index == 1
        assert err.config.architecture == "simple-2vc"
        assert "injected failure" in str(err)

    def test_pool_worker_failure_wraps(self):
        executor = SweepExecutor(jobs=2, worker=_boom)
        with pytest.raises(SweepTaskError) as excinfo:
            executor.run(GRID)
        assert excinfo.value.kind == SweepTaskError.FAILED
        assert excinfo.value.config.architecture == "simple-2vc"

    def test_pool_failure_still_caches_completed_points(self, tmp_path):
        executor = SweepExecutor(jobs=2, cache_dir=tmp_path, worker=_boom)
        with pytest.raises(SweepTaskError):
            executor.run(GRID)
        healthy = SweepExecutor(jobs=1, cache_dir=tmp_path)
        healthy.run(GRID)
        assert healthy.stats()["cache_hits"] == 2  # ideal + advanced survived

    def test_worker_crash_surfaces_as_crashed(self):
        executor = SweepExecutor(jobs=2, worker=_die)
        with pytest.raises(SweepTaskError) as excinfo:
            executor.run(GRID)
        assert excinfo.value.kind == SweepTaskError.CRASHED

    def test_timeout_surfaces_as_timeout(self):
        executor = SweepExecutor(jobs=2, timeout_s=0.5, worker=_sleepy)
        with pytest.raises(SweepTaskError) as excinfo:
            executor.run(GRID[:2])
        assert excinfo.value.kind == SweepTaskError.TIMEOUT
        assert "0.5" in str(excinfo.value)
