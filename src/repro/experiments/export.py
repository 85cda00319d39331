"""Export experiment results to CSV / JSON.

The text tables are for eyeballs; these exporters feed plotting scripts
and downstream analysis.  Both figure series
(:class:`~repro.experiments.figures.FigureSeries`) and single runs
(:class:`~repro.exec.summary.RunSummary`) are supported, plus raw
CDF curves for re-plotting the paper's right-hand panels.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.experiments.figures import FigureSeries

if TYPE_CHECKING:  # runtime imports stay lazy: repro.exec imports this package
    from repro.exec.summary import RunSummary

__all__ = [
    "figure_serializer",
    "figure_to_csv",
    "figure_to_json",
    "result_to_json",
    "write_figure",
]

PathLike = Union[str, Path]


def figure_to_csv(series: FigureSeries) -> str:
    """The figure's tabular series as CSV text (one header row)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(series.headers)
    writer.writerows(series.rows)
    return buffer.getvalue()


def figure_to_json(series: FigureSeries) -> str:
    """The full figure -- rows, CDF curves, notes -- as a JSON document."""
    payload = {
        "figure": series.figure,
        "headers": series.headers,
        "rows": series.rows,
        "cdfs": {
            label: [{"x": x, "p": p} for x, p in curve]
            for label, curve in series.cdfs.items()
        },
        "notes": series.notes,
    }
    return json.dumps(payload, indent=2)


def figure_serializer(path: PathLike, fmt: Optional[str] = None) -> Callable[[FigureSeries], str]:
    """The CSV or JSON serializer for ``path`` (format inferred from the
    suffix), so an unsupported format is rejected before the sweep runs."""
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower()
    if fmt == "csv":
        return figure_to_csv
    if fmt == "json":
        return figure_to_json
    raise ValueError(f"unsupported export format {fmt!r} (use csv or json)")


def write_figure(series: FigureSeries, path: PathLike, *, fmt: Optional[str] = None) -> Path:
    """Write a figure as CSV or JSON; format inferred from the suffix."""
    path = Path(path)
    path.write_text(figure_serializer(path, fmt)(series), encoding="utf-8")
    return path


def result_to_json(result: "RunSummary") -> str:
    """One run's per-class metrics as a JSON document."""
    classes = {}
    for tclass, stats in sorted(result.classes.items()):
        entry = {
            "packets": stats.packets,
            "bytes": stats.bytes,
            "messages": stats.messages,
            "throughput_bytes_per_ns": result.throughput(tclass),
            "normalized_throughput": result.normalized_throughput(tclass),
        }
        if stats.packet_latency.count:
            entry["packet_latency_ns"] = {
                "mean": stats.packet_latency.mean,
                "std": stats.packet_latency.std,
                "min": stats.packet_latency.min,
                "max": stats.packet_latency.max,
            }
        if stats.messages:
            cdf = stats.message_cdf()
            entry["message_latency_ns"] = {
                "mean": stats.message_latency.mean,
                "p50": cdf.quantile(0.5),
                "p99": cdf.quantile(0.99),
                "max": stats.message_latency.max,
                "jitter_mean": stats.jitter.mean if stats.jitter.count else None,
            }
        classes[tclass] = entry
    payload = {
        "architecture": result.config.architecture,
        "load": result.config.mix_config.load,
        "seed": result.config.seed,
        "topology": result.config.topology,
        "warmup_ns": result.config.warmup_ns,
        "measure_ns": result.config.measure_ns,
        "events_executed": result.events_executed,
        "wall_seconds": result.wall_seconds,
        "classes": classes,
    }
    return json.dumps(payload, indent=2)
