"""Root-cause slack attribution over retained span traces.

``repro-qos trace blame`` answers the question the aggregate metrics
cannot: *which stage burned the slack* of the packets that missed their
deadline.  The input is the JSONL dump written by ``run --trace-spans``
(see :mod:`repro.obs.tracing`); the analyzer

1. re-verifies the exact-decomposition invariant of every trace it
   attributes (per-stage integer-ns spans must telescope to exactly the
   end-to-end latency -- a corrupted dump fails loudly, never silently
   skews the attribution),
2. aggregates span time per ``(traffic class, stage)`` and per
   ``(traffic class, stage, node)``, all in exact integer ns,
3. reports, per class, the stages ranked by total time and the top
   node-level hotspots.

Everything is integer arithmetic over deterministically-ordered keys,
so the same seed produces byte-identical reports across runs -- the
property the acceptance gate checks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.obs.tracing import SpanTrace

__all__ = ["BlameReport", "analyze_blame"]


class ClassBlame:
    """Attribution for one traffic class: totals plus ranked stages."""

    __slots__ = ("tclass", "packets", "misses", "e2e_total_ns", "deficit_ns",
                 "worst_slack_ns", "stage_totals", "stage_counts", "hotspots")

    def __init__(self, tclass: str):
        self.tclass = tclass
        self.packets = 0
        self.misses = 0
        #: Sum of end-to-end latencies of the attributed packets.
        self.e2e_total_ns = 0
        #: Total slack deficit: sum of ``-slack`` over missed packets.
        self.deficit_ns = 0
        self.worst_slack_ns = 0
        self.stage_totals: Dict[str, int] = {}
        self.stage_counts: Dict[str, int] = {}
        #: ``(stage, node) -> [total_ns, span_count]``.
        self.hotspots: Dict[Tuple[str, str], List[int]] = {}

    def add(self, trace: SpanTrace) -> None:
        self.packets += 1
        self.e2e_total_ns += trace.e2e_ns
        if trace.missed:
            self.misses += 1
            self.deficit_ns += -trace.slack_ns
        if trace.slack_ns < self.worst_slack_ns:
            self.worst_slack_ns = trace.slack_ns
        for span in trace.spans:
            self.stage_totals[span.stage] = self.stage_totals.get(span.stage, 0) + span.dur_ns
            self.stage_counts[span.stage] = self.stage_counts.get(span.stage, 0) + 1
            site = self.hotspots.get((span.stage, span.node))
            if site is None:
                site = self.hotspots[(span.stage, span.node)] = [0, 0]
            site[0] += span.dur_ns
            site[1] += 1

    def ranked_stages(self) -> List[Tuple[str, int, int]]:
        """``(stage, total_ns, span_count)`` by total desc, then name."""
        return sorted(
            ((stage, total, self.stage_counts[stage]) for stage, total in self.stage_totals.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def ranked_hotspots(self, top: int) -> List[Tuple[str, str, int, int]]:
        """Top ``(stage, node, total_ns, span_count)`` sites."""
        rows = sorted(
            ((stage, node, site[0], site[1]) for (stage, node), site in self.hotspots.items()),
            key=lambda row: (-row[2], row[0], row[1]),
        )
        return rows[:top]


class BlameReport:
    """Per-class slack attribution over a set of span traces."""

    __slots__ = ("classes", "packets", "misses", "missed_only", "top")

    def __init__(self, *, missed_only: bool, top: int):
        self.classes: Dict[str, ClassBlame] = {}
        self.packets = 0
        self.misses = 0
        self.missed_only = missed_only
        self.top = top

    def to_dict(self) -> dict:
        """JSON-ready form, deterministically ordered (``--json`` output)."""
        classes = []
        for tclass in sorted(self.classes):
            blame = self.classes[tclass]
            classes.append(
                {
                    "tclass": tclass,
                    "packets": blame.packets,
                    "misses": blame.misses,
                    "e2e_total_ns": blame.e2e_total_ns,
                    "deficit_ns": blame.deficit_ns,
                    "worst_slack_ns": blame.worst_slack_ns,
                    "stages": [
                        {"stage": stage, "total_ns": total, "spans": count}
                        for stage, total, count in blame.ranked_stages()
                    ],
                    "hotspots": [
                        {"stage": stage, "node": node, "total_ns": total, "spans": count}
                        for stage, node, total, count in blame.ranked_hotspots(self.top)
                    ],
                }
            )
        return {
            "type": "trace-blame",
            "packets": self.packets,
            "misses": self.misses,
            "missed_only": self.missed_only,
            "classes": classes,
        }

    def format(self) -> str:
        """Human-readable report (byte-stable for identical inputs)."""
        scope = "missed" if self.missed_only else "retained"
        lines = [
            f"blame: {self.packets} {scope} packet(s) across "
            f"{len(self.classes)} class(es)"
        ]
        if not self.classes:
            lines.append("  (nothing to attribute -- no retained traces matched)")
            return "\n".join(lines) + "\n"
        for tclass in sorted(self.classes):
            blame = self.classes[tclass]
            lines.append("")
            lines.append(
                f"class {tclass}: {blame.packets} packet(s), "
                f"{blame.misses} miss(es), slack deficit {blame.deficit_ns} ns, "
                f"worst slack {blame.worst_slack_ns} ns"
            )
            lines.append(f"  {'stage':<22} {'total ns':>14} {'share':>7} {'spans':>7}")
            for stage, total, count in blame.ranked_stages():
                share = 100.0 * total / blame.e2e_total_ns if blame.e2e_total_ns else 0.0
                lines.append(f"  {stage:<22} {total:>14} {share:>6.1f}% {count:>7}")
            hotspots = blame.ranked_hotspots(self.top)
            if hotspots:
                lines.append(f"  top {len(hotspots)} site(s):")
                for stage, node, total, count in hotspots:
                    lines.append(
                        f"    {stage} @ {node}: {total} ns over {count} span(s)"
                    )
        return "\n".join(lines) + "\n"

    def format_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def analyze_blame(
    traces: Iterable[SpanTrace],
    *,
    missed_only: bool = True,
    top: int = 5,
) -> BlameReport:
    """Attribute end-to-end latency to lifecycle stages, per class.

    ``missed_only`` (the default) attributes only deadline misses -- the
    ``trace blame`` contract; pass False to profile every retained trace
    (useful with head sampling, where hits are retained too).

    Precondition: every trace is exact.  Traces come from
    :func:`~repro.obs.tracing.read_spans_jsonl` or
    :attr:`~repro.obs.tracing.PacketTracer.records`, and both have
    checked each one they hand out; this function checks nothing again.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    report = BlameReport(missed_only=missed_only, top=top)
    for trace in traces:
        report.misses += trace.missed
        if missed_only and not trace.missed:
            continue
        report.packets += 1
        blame = report.classes.get(trace.tclass)
        if blame is None:
            blame = report.classes[trace.tclass] = ClassBlame(trace.tclass)
        blame.add(trace)
    return report
