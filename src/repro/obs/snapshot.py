"""Structured export of a run's observability state.

One document shape (``schema_version`` 2, schema checked in at
``docs/metrics_schema.json``)::

    {
      "schema_version": 2,
      "run": {...},                # free-form run descriptors (CLI args)
      "engine": {...},             # event-loop health numbers
      "metrics": {name: {...}},    # registry snapshot, name-sorted
      "timeseries": {...},         # heartbeat rows (when telemetry ran)
      "trace": {...},              # trace-buffer summary (when traced)
      "spans": {...}               # span-tracer ledger (when span-traced)
    }

Version 2 added the optional ``spans`` section (the
:meth:`repro.obs.tracing.PacketTracer.snapshot` sampling/retention
ledger); version-1 documents remain valid -- the section is optional and
the schema accepts both versions.

Everything is plain JSON with sorted keys, so two snapshots of identical
runs are byte-identical -- which is what makes ``repro-qos metrics A B``
diffs meaningful and lets CI pin the schema.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional

__all__ = [
    "diff_snapshots",
    "dump_snapshot",
    "format_diff",
    "format_snapshot",
    "load_snapshot",
    "run_snapshot",
    "write_trace_jsonl",
]

SCHEMA_VERSION = 2


def run_snapshot(
    metrics,
    *,
    engine=None,
    telemetry=None,
    trace=None,
    tracer=None,
    run_info: Optional[dict] = None,
) -> dict:
    """Assemble the stable JSON document for one run."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "run": dict(run_info or {}),
        "metrics": metrics.snapshot(),
    }
    if engine is not None:
        doc["engine"] = {
            "now_ns": engine.now,
            "events_executed": engine.events_executed,
            "pending_events": engine.pending,
            "tombstones_discarded": engine.tombstones_discarded,
            "tombstone_ratio": engine.tombstone_ratio,
        }
    if telemetry is not None:
        doc["timeseries"] = telemetry.timeseries.to_dict()
        doc["run"].setdefault("heartbeat_ns", telemetry.heartbeat_ns)
        doc["run"].setdefault("telemetry_ticks", telemetry.ticks)
    if trace is not None:
        doc["trace"] = trace.snapshot()
    if tracer is not None:
        doc["spans"] = tracer.snapshot()
    return doc


def dump_snapshot(doc: dict, fp: IO[str]) -> None:
    """Serialize with sorted keys (byte-stable for identical runs)."""
    json.dump(doc, fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise ValueError(f"{path} is not a metrics snapshot (no 'metrics' key)")
    return doc


def write_trace_jsonl(trace, fp: IO[str]) -> int:
    """Dump a trace buffer as JSONL: one summary header line, then one
    line per retained record.  Returns the record count written."""
    header = {"type": "trace-summary"}
    header.update(trace.snapshot())
    fp.write(json.dumps(header, sort_keys=True, default=repr) + "\n")
    written = 0
    for rec in trace.records:
        fp.write(
            json.dumps(
                {"t_ns": rec.time, "topic": rec.topic, "payload": list(rec.payload)},
                default=repr,
            )
            + "\n"
        )
        written += 1
    return written


# ----------------------------------------------------------------------
# pretty-printing
# ----------------------------------------------------------------------
def format_snapshot(doc: dict) -> str:
    """Human-readable rendering of one snapshot."""
    lines: List[str] = []
    run = doc.get("run") or {}
    if run:
        lines.append("run:")
        for key in sorted(run):
            lines.append(f"  {key}: {run[key]}")
    engine = doc.get("engine")
    if engine:
        lines.append("engine:")
        for key in sorted(engine):
            lines.append(f"  {key}: {engine[key]}")
    metrics: Dict[str, dict] = doc.get("metrics", {})
    by_kind: Dict[str, List[str]] = {"counter": [], "gauge": [], "histogram": []}
    for name in sorted(metrics):
        by_kind.setdefault(metrics[name].get("type", "?"), []).append(name)
    width = max((len(n) for n in metrics), default=0)
    for kind in ("counter", "gauge", "histogram"):
        names = by_kind.get(kind, [])
        if not names:
            continue
        lines.append(f"{kind}s:")
        for name in names:
            entry = metrics[name]
            if kind == "histogram":
                lines.append(
                    f"  {name:<{width}}  n={entry['count']}"
                    f"  min={entry['min']}  max={entry['max']}  sum={entry['sum']}"
                )
                lines.append(
                    "  " + " " * width + "  buckets "
                    + _format_buckets(entry["bounds"], entry["counts"])
                )
            else:
                unit = f" {entry['unit']}" if entry.get("unit") else ""
                value = entry["value"]
                if isinstance(value, float):
                    value = f"{value:.6g}"
                lines.append(f"  {name:<{width}}  {value}{unit}")
    timeseries = doc.get("timeseries")
    if timeseries:
        lines.append(f"timeseries: {len(timeseries.get('samples', []))} heartbeat rows")
    trace = doc.get("trace")
    if trace:
        lines.append(
            f"trace: {trace.get('retained', 0)} retained, "
            f"{trace.get('dropped', 0)} dropped ({trace.get('policy')})"
        )
    spans = doc.get("spans")
    if spans:
        lines.append(
            f"spans: {spans.get('sampled', 0)} sampled, "
            f"{spans.get('retained', 0)} retained, "
            f"{spans.get('dropped', 0)} dropped ({spans.get('policy')})"
        )
    return "\n".join(lines)


def _format_buckets(bounds: List[int], counts: List[int]) -> str:
    parts = [f"<={bound}:{count}" for bound, count in zip(bounds, counts) if count]
    if counts[-1]:
        parts.append(f">{bounds[-1]}:{counts[-1]}")
    return " ".join(parts) if parts else "(empty)"


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def diff_snapshots(a: dict, b: dict) -> dict:
    """Structured diff of two snapshots' metrics (B relative to A)."""
    metrics_a: Dict[str, dict] = a.get("metrics", {})
    metrics_b: Dict[str, dict] = b.get("metrics", {})
    only_a = sorted(set(metrics_a) - set(metrics_b))
    only_b = sorted(set(metrics_b) - set(metrics_a))
    changed = {}
    for name in sorted(set(metrics_a) & set(metrics_b)):
        entry_a, entry_b = metrics_a[name], metrics_b[name]
        if entry_a == entry_b:
            continue
        if entry_a.get("type") == "histogram":
            changed[name] = {
                "type": "histogram",
                "count": [entry_a.get("count"), entry_b.get("count")],
                "sum": [entry_a.get("sum"), entry_b.get("sum")],
            }
        else:
            va, vb = entry_a.get("value"), entry_b.get("value")
            delta = vb - va if isinstance(va, (int, float)) and isinstance(vb, (int, float)) else None
            changed[name] = {"type": entry_a.get("type"), "value": [va, vb], "delta": delta}
    return {"only_a": only_a, "only_b": only_b, "changed": changed}


def format_diff(diff: dict, label_a: str = "A", label_b: str = "B") -> str:
    lines: List[str] = []
    for name in diff["only_a"]:
        lines.append(f"- {name}  (only in {label_a})")
    for name in diff["only_b"]:
        lines.append(f"+ {name}  (only in {label_b})")
    for name, change in diff["changed"].items():
        if change["type"] == "histogram":
            (count_a, count_b) = change["count"]
            (sum_a, sum_b) = change["sum"]
            lines.append(f"~ {name}  n {count_a} -> {count_b}  sum {sum_a} -> {sum_b}")
        else:
            va, vb = change["value"]
            delta = change["delta"]
            suffix = f"  ({delta:+g})" if isinstance(delta, (int, float)) else ""
            lines.append(f"~ {name}  {va} -> {vb}{suffix}")
    if not lines:
        lines.append("snapshots are identical")
    return "\n".join(lines)
