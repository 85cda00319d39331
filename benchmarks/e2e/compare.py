"""Compare two documents written by ``python -m benchmarks.e2e``.

Per workload and end-to-end metric: both medians, the ratio B/A with its
base, the bound, and a verdict.  ``regressed`` means B's median is worse
than A's by more than the bound.  Where either side's round-to-round
spread is wider than the bound and the two sides' rounds overlap, the
difference cannot be told from noise and the verdict is ``unresolved``
-- never ``unchanged``.  ``improved`` needs every round of B to read
better than every round of A and the medians to differ by more than A's
own spread.  Exact counts and digests are compared for equality.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple

Document = Mapping[str, Any]


def _spread(metric: Mapping[str, Any]) -> float:
    return (metric["max"] - metric["min"]) / metric["value"] if metric["value"] else 0.0


def verdict(a: Mapping[str, Any], b: Mapping[str, Any]) -> Tuple[str, float]:
    """``(verdict, worse_by)``; ``worse_by`` is B's loss as a share of A."""
    lower = a["better"] == "lower"
    worse_by = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    if lower:
        b_all_better = b["max"] < a["min"]
        overlap = not (b_all_better or b["min"] > a["max"])
    else:
        b_all_better = b["min"] > a["max"]
        overlap = not (b_all_better or b["max"] < a["min"])
    if b_all_better and -worse_by > _spread(a):
        return "improved", worse_by
    if max(_spread(a), _spread(b)) > a["bound"] and overlap:
        return "unresolved", worse_by
    if worse_by > a["bound"]:
        return "regressed", worse_by
    return "unchanged", worse_by


def compare(a: Document, b: Document) -> Dict[str, Any]:
    """``{"rows": [...], "count_differences": [...], "notes": [...]}``."""
    rows: List[Dict[str, Any]] = []
    differences: List[str] = []
    notes: List[str] = []
    seed_a, seed_b = a["environment"]["seed"], b["environment"]["seed"]
    if seed_a != seed_b:
        notes.append(f"seeds differ (A {seed_a}, B {seed_b}): counts and digests will too")
    for side, doc in (("A", a), ("B", b)):
        for name, entry in doc["workloads"].items():
            if entry["runs_failed"]:
                notes.append(
                    f"{side} {name}: {entry['runs_failed']}/{entry['runs_attempted']} runs failed"
                )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            notes.append(f"{name}: missing from B")
            continue
        for metric, value_a in entry_a["end_to_end"].items():
            value_b = entry_b["end_to_end"].get(metric)
            if value_b is None:
                notes.append(f"{name} {metric}: missing from B")
                continue
            word, worse_by = verdict(value_a, value_b)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": value_a["unit"],
                    "better": value_a["better"],
                    "a": value_a["value"],
                    "b": value_b["value"],
                    "ratio_b_over_a": value_b["value"] / value_a["value"],
                    "worse_by": worse_by,
                    "bound": value_a["bound"],
                    "spread_a": _spread(value_a),
                    "spread_b": _spread(value_b),
                    "verdict": word,
                }
            )
        for key in ("sim_digest", "classes_digest"):
            if entry_a[key] != entry_b[key]:
                differences.append(f"{name} {key}: A {entry_a[key]} != B {entry_b[key]}")
        for metric, value_a in entry_a["per_layer"].items():
            value_b = entry_b["per_layer"].get(metric)
            if value_a["unit"] not in ("count", "B") or value_b is None:
                continue
            if value_a["value"] != value_b["value"]:
                differences.append(
                    f"{name} {metric}: A {value_a['value']} != B {value_b['value']}"
                )
    return {"rows": rows, "count_differences": differences, "notes": notes}


def render(result: Mapping[str, Any]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12}  {'B/A (base A)':<24} "
        f"{'bound':>6} {'spread A/B':>13}  verdict"
    ]
    for row in result["rows"]:
        ratio = f"{row['ratio_b_over_a']:.3f} of {row['a']:.4g} {row['unit']}"
        spreads = f"{row['spread_a']:.1%}/{row['spread_b']:.1%}"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<12} {row['a']:>12.4f} {row['b']:>12.4f}  "
            f"{ratio:<24} {row['bound']:>6.0%} {spreads:>13}  "
            f"{row['verdict']} ({row['better']} is better)"
        )
    differences = result["count_differences"]
    lines.append(
        "exact counts and digests: "
        + ("all identical" if not differences else f"{len(differences)} differ")
    )
    lines.extend("  " + line for line in differences)
    lines.extend("note: " + line for line in result["notes"])
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    """Exit 1 when any metric regressed or any count differs."""
    with open(path_a, encoding="utf-8") as fp:
        a = json.load(fp)
    with open(path_b, encoding="utf-8") as fp:
        b = json.load(fp)
    result = compare(a, b)
    print(f"A = {path_a}\nB = {path_b}")
    print(render(result))
    regressed = any(row["verdict"] == "regressed" for row in result["rows"])
    return 1 if regressed or result["count_differences"] else 0
