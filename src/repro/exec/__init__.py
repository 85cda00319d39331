"""Parallel campaign execution: summaries, executor, result cache.

The figure sweeps and replication campaigns are batches of independent
CPU-bound simulations.  This package runs them across a process pool
with deterministic merge order (``--jobs N`` output is byte-identical
to serial), compact picklable results (:class:`RunSummary`), and a
content-addressed on-disk cache keyed by :func:`config_digest` so warm
replays and interrupted-campaign resume cost no simulation time.
"""

from repro.exec.cache import ResultCache
from repro.exec.digest import (
    SUMMARY_SCHEMA_VERSION,
    canonical_config_dict,
    config_digest,
    config_from_dict,
    stable_hash,
)
from repro.exec.executor import SweepExecutor, SweepTaskError
from repro.exec.summary import (
    DEFAULT_CDF_SAMPLES,
    ClassSummary,
    FrozenStats,
    RunSummary,
    downsample_sorted,
    execute_config,
    summarize_run,
)

__all__ = [
    "DEFAULT_CDF_SAMPLES",
    "SUMMARY_SCHEMA_VERSION",
    "ClassSummary",
    "FrozenStats",
    "ResultCache",
    "RunSummary",
    "SweepExecutor",
    "SweepTaskError",
    "canonical_config_dict",
    "config_digest",
    "config_from_dict",
    "downsample_sorted",
    "execute_config",
    "stable_hash",
    "summarize_run",
]
