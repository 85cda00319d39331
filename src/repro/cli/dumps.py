"""The commands that read what a run wrote: ``metrics`` pretty-prints one
``run --metrics-out`` snapshot or diffs two (``--schema`` validates first);
``trace blame|export`` turn a ``run --trace-spans`` dump into a per-stage
slack attribution or Chrome trace-event JSON."""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.blame import analyze_blame
from repro.obs.schema import validate
from repro.obs.snapshot import diff_snapshots, format_diff, format_snapshot, load_snapshot
from repro.obs.tracing import read_spans_jsonl, write_chrome_trace


def register(sub) -> None:
    metrics_p = sub.add_parser("metrics", help="pretty-print one metrics snapshot or diff two")
    metrics_p.add_argument(
        "snapshots",
        nargs="+",
        metavar="SNAPSHOT",
        help="one snapshot file to pretty-print, or two to diff",
    )
    metrics_p.add_argument(
        "--schema",
        default=None,
        metavar="FILE",
        help="validate the snapshot(s) against this JSON schema first "
        "(e.g. docs/metrics_schema.json); exit 1 on violations",
    )
    metrics_p.set_defaults(handler=metrics)
    trace_p = sub.add_parser("trace", help="analyze a span-trace dump from `run --trace-spans`")
    family = trace_p.add_subparsers(dest="trace_command", required=True)
    blame_p = family.add_parser(
        "blame",
        help="attribute missed-deadline slack to lifecycle stages per class",
    )
    blame_p.add_argument("spans", metavar="SPANS_JSONL")
    blame_p.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="node-level hotspot sites to list per class (default: 5)",
    )
    blame_p.add_argument(
        "--all",
        action="store_true",
        help="attribute every retained trace, not just deadline misses "
        "(useful with head sampling, which retains hits too)",
    )
    blame_p.add_argument("--json", action="store_true", help="emit the report as JSON")
    blame_p.set_defaults(handler=trace_blame)
    export_p = family.add_parser(
        "export",
        help="convert a span-trace dump to Chrome trace-event JSON",
    )
    export_p.add_argument("spans", metavar="SPANS_JSONL")
    export_p.add_argument(
        "-o",
        "--out",
        default="trace.json",
        metavar="FILE",
        help="Chrome trace-event output path (default: trace.json)",
    )
    export_p.set_defaults(handler=trace_export)


def metrics(args: argparse.Namespace):
    if len(args.snapshots) > 2:
        raise ValueError(
            f"expected one snapshot (print) or two (diff), got {len(args.snapshots)}"
        )
    docs = [load_snapshot(path) for path in args.snapshots]
    if args.schema:
        try:
            with open(args.schema, "r", encoding="utf-8") as fp:
                schema = json.load(fp)
        except (OSError, ValueError) as exc:  # say which of the inputs it was
            raise ValueError(f"cannot load schema: {exc}") from exc
    yield
    if args.schema:
        errors = [
            f"{path}: {error}"
            for path, doc in zip(args.snapshots, docs)
            for error in validate(doc, schema)
        ]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        print(f"[schema ok: {', '.join(args.snapshots)}]", file=sys.stderr)
    if len(docs) == 1:
        print(format_snapshot(docs[0]))
    else:
        diff = diff_snapshots(docs[0], docs[1])
        print(format_diff(diff, label_a=args.snapshots[0], label_b=args.snapshots[1]))
    return 0


def trace_blame(args: argparse.Namespace):
    header, traces = read_spans_jsonl(args.spans)
    report = analyze_blame(traces, missed_only=not args.all, top=args.top)
    yield
    if args.json:
        print(report.format_json(), end="")
    else:
        policy = header.get("policy", "?")
        print(f"[{len(traces)} retained trace(s), policy {policy}]", file=sys.stderr)
        print(report.format(), end="")
    return 0


def trace_export(args: argparse.Namespace):
    _, traces = read_spans_jsonl(args.spans)
    with open(args.out, "w", encoding="utf-8") as fp:
        yield
        events = write_chrome_trace(traces, fp, run_info={"source": args.spans})
    print(
        f"[chrome trace written to {args.out}: {events} span events "
        f"from {len(traces)} packet(s)]",
        file=sys.stderr,
    )
    return 0
