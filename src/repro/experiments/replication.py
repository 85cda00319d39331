"""Multi-seed replication: means and confidence intervals.

A single seeded run is deterministic but still one sample of the
workload process; claims like "Advanced is within 5% of Ideal" deserve
error bars.  :func:`replicate` runs one configuration across seeds and
:class:`Replication` reduces any scalar metric to mean / std / a
Student-t 95% confidence interval (three to five seeds is the usual
count, where the normal quantile is 1.4-2.2x too narrow).

The runner is embarrassingly parallel across seeds, and ``replicate``
exploits that directly: pass a :class:`repro.exec.executor.SweepExecutor`
built with ``jobs=N`` to fan the seeds across a process pool (its
``cache_dir`` replays finished seeds).  Replicates come back as compact
:class:`~repro.exec.summary.RunSummary` objects in seed order, so the
statistics are identical at any job count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig

if TYPE_CHECKING:  # runtime imports stay lazy: repro.exec imports this package
    from repro.exec.executor import SweepExecutor
    from repro.exec.summary import RunSummary

__all__ = ["MetricSummary", "Replication", "check_seeds", "replicate"]

#: two-sided 95% normal quantile: the t quantile's limit, used past the table
_Z95 = 1.959963984540054

#: two-sided 95% Student-t quantiles, ``_T95[df - 1]`` for df = 1..30
#: (tests/experiments/test_replication_export.py checks them against scipy)
_T95 = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281,
    2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860,
    2.0796, 2.0739, 2.0687, 2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
)


@dataclass(frozen=True)
class MetricSummary:
    """Mean and spread of one scalar metric across seeds."""

    name: str
    values: Tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (self.n - 1))

    @property
    def ci95(self) -> Tuple[float, float]:
        """Student-t 95% confidence interval of the mean (n - 1 degrees of freedom)."""
        n = self.n
        if n < 2:
            return (self.mean, self.mean)
        quantile = _T95[n - 2] if n - 1 <= len(_T95) else _Z95
        half = quantile * self.std / math.sqrt(n)
        return (self.mean - half, self.mean + half)

    def overlaps(self, other: "MetricSummary") -> bool:
        a_lo, a_hi = self.ci95
        b_lo, b_hi = other.ci95
        return a_lo <= b_hi and b_lo <= a_hi

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.ci95
        return f"{self.name}: {self.mean:.4g} [{lo:.4g}, {hi:.4g}] (n={self.n})"


MetricFn = Callable[["RunSummary"], float]


class Replication:
    """Results of one configuration across several seeds."""

    def __init__(self, config: ExperimentConfig, results: Dict[int, "RunSummary"]):
        if not results:
            raise ValueError("replication needs at least one run")
        self.config = config
        self.results = results

    @property
    def seeds(self) -> List[int]:
        return sorted(self.results)

    def metric(self, name: str, fn: MetricFn) -> MetricSummary:
        return MetricSummary(
            name, tuple(fn(self.results[seed]) for seed in self.seeds)
        )

    # Convenience extractors for the metrics the figures use -------------
    def mean_latency(self, tclass: str) -> MetricSummary:
        return self.metric(
            f"mean latency [{tclass}]",
            lambda r: r.get(tclass).message_latency.mean,
        )

    def throughput(self, tclass: str) -> MetricSummary:
        return self.metric(f"throughput [{tclass}]", lambda r: r.throughput(tclass))


def check_seeds(seeds: Sequence[int]) -> None:
    """Reject a seed list :func:`replicate` cannot key its results by."""
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds!r}")


def replicate(
    config: ExperimentConfig,
    seeds: Sequence[int],
    *,
    executor: Optional["SweepExecutor"] = None,
) -> Replication:
    """Run ``config`` once per seed and bundle the results.

    The default executor runs in-process; one built with ``jobs=N`` fans
    seeds across a process pool.  Either way the per-seed summaries are
    identical (seeding is entirely config-derived) and ordered by the
    ``seeds`` sequence.
    """
    check_seeds(seeds)
    if executor is None:
        from repro.exec.executor import SweepExecutor

        executor = SweepExecutor()
    summaries = executor.run([config.with_(seed=seed) for seed in seeds])
    return Replication(config, dict(zip(seeds, summaries)))
