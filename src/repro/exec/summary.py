"""Picklable, compact run summaries.

A :class:`~repro.experiments.runner.RunResult` pins the entire simulation
graph -- the fabric, every queue, every traffic source, the engine's
event heap.  That is the right return value for inspecting the network
afterwards (link utilization, span blame), but it is exactly wrong for a
process pool: pickling it would ship megabytes of live object graph (or
fail outright on unpicklable callbacks) for every sweep point.

:class:`RunSummary` is the reduced result instead: per-class latency,
jitter, CDF samples, and throughput, plus the run's config and event
counts.  It crosses a process boundary in kilobytes, serializes to JSON
for the content-addressed result cache, and is the one thing a printed,
exported, plotted, cached or replicated number is read through
(``get(tclass)``, ``throughput``, ``normalized_throughput``, ``table``):
``repro-qos run`` reduces its live result with :func:`summarize_run`
before printing, so every command shows the same numbers for one point.

:func:`execute_config` is the process-pool worker entry point: config in,
summary out, nothing else crosses the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.architectures import ARCHITECTURES
from repro.exec.digest import (
    SUMMARY_SCHEMA_VERSION,
    canonical_config_dict,
    config_from_dict,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, run_experiment
from repro.sim import units
from repro.stats.cdf import EmpiricalCDF
from repro.stats.collectors import ClassStats
from repro.stats.report import format_table
from repro.stats.running import RunningStats
from repro.traffic.mix import CLASS_NAMES

__all__ = [
    "DEFAULT_CDF_SAMPLES",
    "ClassSummary",
    "FrozenStats",
    "RunSummary",
    "downsample_sorted",
    "execute_config",
    "summarize_run",
]

#: Per-CDF sample budget: enough for 0.1%-granular quantiles, small
#: enough that a four-class summary stays well under a megabyte.
DEFAULT_CDF_SAMPLES = 4096


def downsample_sorted(values: Sequence[float], cap: int) -> Tuple[float, ...]:
    """At most ``cap`` evenly-spaced order statistics of a sorted sample.

    Always keeps the minimum and maximum; a deterministic pure function
    of the input, so serial and parallel sweeps (and cache replays)
    produce bit-identical curves.  Samples at or under the cap pass
    through untouched (the exact regime -- quantiles match the full
    reservoir bit-for-bit).  Beyond the cap a nearest-rank quantile over
    the kept samples reads slightly high: p99 is the 99.02th percentile of
    the full sample (kept as is: stored ``sim_digest``s hash the samples).
    """
    if cap < 2:
        raise ValueError(f"cdf sample cap must be >= 2, got {cap}")
    n = len(values)
    if n <= cap:
        return tuple(values)
    last = n - 1
    return tuple(values[round(i * last / (cap - 1))] for i in range(cap))


@dataclass(frozen=True)
class FrozenStats:
    """Immutable snapshot of a :class:`~repro.stats.running.RunningStats`."""

    count: int
    mean: float
    std: float
    min: float
    max: float

    @classmethod
    def from_running(cls, stats: RunningStats) -> "FrozenStats":
        return cls(
            count=stats.count,
            mean=stats.mean,
            std=stats.std,
            min=stats.min,
            max=stats.max,
        )

    def to_dict(self) -> Dict[str, Any]:
        # min/max are +/-inf for an empty accumulator; JSON has no inf,
        # so empties serialize as null and round-trip back exactly.
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if math.isfinite(self.min) else None,
            "max": self.max if math.isfinite(self.max) else None,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FrozenStats":
        return cls(
            count=doc["count"],
            mean=doc["mean"],
            std=doc["std"],
            min=doc["min"] if doc["min"] is not None else math.inf,
            max=doc["max"] if doc["max"] is not None else -math.inf,
        )


@dataclass(frozen=True)
class ClassSummary:
    """One traffic class's measured QoS, detached from the collector.

    Named like :class:`~repro.stats.collectors.ClassStats`
    (``message_latency``, ``message_cdf()``, ``jitter``, ...), over frozen
    data.
    """

    tclass: str
    packets: int
    bytes: int
    messages: int
    packet_latency: FrozenStats
    message_latency: FrozenStats
    jitter: FrozenStats
    #: Sorted (possibly downsampled) latency samples backing the CDFs.
    packet_samples: Tuple[float, ...] = ()
    message_samples: Tuple[float, ...] = ()

    @classmethod
    def from_stats(cls, stats: ClassStats) -> "ClassSummary":
        return cls(
            tclass=stats.tclass,
            packets=stats.packets,
            bytes=stats.bytes,
            messages=stats.messages,
            packet_latency=FrozenStats.from_running(stats.packet_latency),
            message_latency=FrozenStats.from_running(stats.message_latency),
            jitter=FrozenStats.from_running(stats.jitter),
            packet_samples=downsample_sorted(
                sorted(stats.packet_reservoir.items), DEFAULT_CDF_SAMPLES
            ),
            message_samples=downsample_sorted(
                sorted(stats.message_reservoir.items), DEFAULT_CDF_SAMPLES
            ),
        )

    def packet_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF(self.packet_samples)

    def message_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF(self.message_samples)

    def throughput_bytes_per_ns(self, window_ns: int) -> float:
        if window_ns <= 0:
            return 0.0
        return self.bytes / window_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tclass": self.tclass,
            "packets": self.packets,
            "bytes": self.bytes,
            "messages": self.messages,
            "packet_latency": self.packet_latency.to_dict(),
            "message_latency": self.message_latency.to_dict(),
            "jitter": self.jitter.to_dict(),
            "packet_samples": list(self.packet_samples),
            "message_samples": list(self.message_samples),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ClassSummary":
        return cls(
            tclass=doc["tclass"],
            packets=doc["packets"],
            bytes=doc["bytes"],
            messages=doc["messages"],
            packet_latency=FrozenStats.from_dict(doc["packet_latency"]),
            message_latency=FrozenStats.from_dict(doc["message_latency"]),
            jitter=FrozenStats.from_dict(doc["jitter"]),
            packet_samples=tuple(doc["packet_samples"]),
            message_samples=tuple(doc["message_samples"]),
        )


@dataclass(frozen=True)
class RunSummary:
    """Everything a command prints, draws or exports from one run.

    Holds no :class:`~repro.network.fabric.Fabric` or
    :class:`~repro.traffic.mix.TrafficMix` reference -- only the config
    (itself plain data) and reduced statistics -- so it pickles in
    kilobytes and serializes losslessly to JSON.
    """

    config: ExperimentConfig
    window_ns: int
    n_hosts: int
    events_executed: int
    wall_seconds: float
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Optional observability snapshot (metrics registry + engine
    #: counters) captured by :func:`execute_config` on request.
    obs: Optional[Dict[str, Any]] = None

    # -- reading surface ------------------------------------------------
    def get(self, tclass: str) -> ClassSummary:
        try:
            return self.classes[tclass]
        except KeyError:
            known = ", ".join(sorted(self.classes)) or "(none)"
            raise KeyError(
                f"no deliveries recorded for class {tclass!r}; classes seen: {known}"
            ) from None

    def throughput(self, tclass: str) -> float:
        """Delivered bytes/ns of a class over the measurement window."""
        stats = self.classes.get(tclass)
        if stats is None:
            return 0.0
        return stats.throughput_bytes_per_ns(self.window_ns)

    def offered(self, tclass: str) -> float:
        """Configured offered bytes/ns of a class, fabric-wide."""
        per_host = self.config.mix_config.class_rate(
            tclass, self.config.params.bytes_per_ns
        )
        return per_host * self.n_hosts

    def normalized_throughput(self, tclass: str) -> float:
        offered = self.offered(tclass)
        return self.throughput(tclass) / offered if offered > 0 else 0.0

    def table(self) -> str:
        """The per-class QoS table ``repro-qos run`` prints."""
        rows = []
        for tclass in CLASS_NAMES:
            stats = self.classes.get(tclass)
            if stats is None or stats.packets == 0:
                continue
            # Message (frame) latency when full messages completed in the
            # window; packet latency otherwise (e.g. video frames longer
            # than a very short run); throughput only if nothing measured
            # latency-wise (all births fell in the warm-up).
            if stats.messages > 0:
                latency = stats.message_latency
                cdf = stats.message_cdf()
                count = stats.messages
            elif stats.packet_latency.count > 0:
                latency = stats.packet_latency
                cdf = stats.packet_cdf()
                count = stats.packets
            else:
                latency = cdf = None
                count = stats.packets
            rows.append(
                [
                    tclass,
                    count,
                    units.ns_to_us(latency.mean) if latency else 0.0,
                    units.ns_to_us(cdf.quantile(0.99)) if cdf else 0.0,
                    units.ns_to_us(latency.max) if latency else 0.0,
                    units.ns_to_us(stats.jitter.mean if stats.jitter.count else 0.0),
                    self.throughput(tclass),
                    self.normalized_throughput(tclass),
                ]
            )
        arch = ARCHITECTURES[self.config.architecture].label
        title = (
            f"{arch}  load={self.config.mix_config.load:.0%}  "
            f"topology={self.config.topology}  seed={self.config.seed}"
        )
        return format_table(
            [
                "class",
                "messages",
                "avg lat (us)",
                "p99 (us)",
                "max (us)",
                "jitter (us)",
                "tput (B/ns)",
                "tput/offered",
            ],
            rows,
            title=title,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "config": canonical_config_dict(self.config),
            "window_ns": self.window_ns,
            "n_hosts": self.n_hosts,
            "events_executed": self.events_executed,
            "wall_seconds": self.wall_seconds,
            "classes": {
                tclass: self.classes[tclass].to_dict()
                for tclass in sorted(self.classes)
            },
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunSummary":
        if doc.get("schema") != SUMMARY_SCHEMA_VERSION:
            raise ValueError(
                f"summary schema {doc.get('schema')!r} != "
                f"{SUMMARY_SCHEMA_VERSION} (stale cache entry?)"
            )
        return cls(
            config=config_from_dict(doc["config"]),
            window_ns=doc["window_ns"],
            n_hosts=doc["n_hosts"],
            events_executed=doc["events_executed"],
            wall_seconds=doc["wall_seconds"],
            classes={
                tclass: ClassSummary.from_dict(entry)
                for tclass, entry in sorted(doc["classes"].items())
            },
            obs=doc.get("obs"),
        )


def summarize_run(result: RunResult, *, obs: Optional[Dict[str, Any]] = None) -> RunSummary:
    """Reduce a finished :class:`RunResult` to a :class:`RunSummary`."""
    classes = {
        tclass: ClassSummary.from_stats(stats)
        for tclass, stats in sorted(result.collector.classes.items())
    }
    return RunSummary(
        config=result.config,
        window_ns=result.collector.window_ns,
        n_hosts=result.fabric.topology.n_hosts,
        events_executed=result.events_executed,
        wall_seconds=result.wall_seconds,
        classes=classes,
        obs=obs,
    )


def execute_config(config: ExperimentConfig, *, collect_obs: bool = False) -> RunSummary:
    """Run one configuration and return its summary.

    The process-pool worker entry point (top-level, so it pickles by
    reference); also the ``--jobs 1`` in-process path, so serial and
    parallel campaigns execute the exact same code.
    """
    metrics = None
    if collect_obs:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    result = run_experiment(config, metrics=metrics)
    obs_doc: Optional[Dict[str, Any]] = None
    if metrics is not None:
        from repro.obs.snapshot import run_snapshot

        obs_doc = run_snapshot(metrics, engine=result.fabric.engine)
    return summarize_run(result, obs=obs_doc)
