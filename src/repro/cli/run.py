"""``repro-qos run``: one simulation, its per-class QoS summary, and the
observability sinks (metrics snapshot, event ring, span traces)."""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.cli import common
from repro.experiments.export import result_to_json
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import dump_snapshot, run_snapshot, write_trace_jsonl
from repro.obs.telemetry import RunTelemetry
from repro.obs.tracing import PacketTracer, write_chrome_trace, write_spans_jsonl
from repro.sim import units
from repro.sim.monitor import Trace

#: The flags that name an output file, by their ``args`` attribute.
OUTPUTS = ("metrics_out", "trace_out", "trace_spans", "trace_chrome")


def register(sub) -> None:
    parser = sub.add_parser("run", help="run one simulation and print per-class QoS")
    common.add_point_args(parser)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable the metrics registry and write the JSON snapshot here",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable event tracing (ring buffer, newest kept) and write it "
        "as JSONL here",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=100_000,
        metavar="N",
        help="trace ring-buffer size in records (default: 100000)",
    )
    parser.add_argument(
        "--trace-spans",
        default=None,
        metavar="FILE",
        help="enable span-based packet-lifecycle tracing and write the "
        "retained span chains as JSONL here (see `repro-qos trace`)",
    )
    parser.add_argument(
        "--span-policy",
        choices=["tail", "head"],
        default="tail",
        help="span sampling policy: 'tail' retains only deadline misses, "
        "'head' samples per-flow at --span-rate (default: tail)",
    )
    parser.add_argument(
        "--span-rate",
        type=float,
        default=0.01,
        metavar="P",
        help="head-sampling probability per packet in [0, 1] "
        "(default: 0.01; ignored under --span-policy tail)",
    )
    parser.add_argument(
        "--span-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="span-trace ring size in packets, newest kept (default: 4096)",
    )
    parser.add_argument(
        "--trace-chrome",
        default=None,
        metavar="FILE",
        help="also write the retained spans as Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--heartbeat-us",
        type=float,
        default=200.0,
        metavar="US",
        help="telemetry sampling interval in simulated microseconds "
        "(default: 200; used when --metrics-out or --live is on)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="print a live progress line (sim-time, events/sec, ETA) to stderr",
    )
    common.add_sim_args(parser)
    parser.set_defaults(handler=command)


def command(args: argparse.Namespace):
    from repro.exec.summary import summarize_run

    (config,) = common.sim_configs(args).values()
    metrics = trace = tracer = heartbeat_ns = None
    if args.metrics_out or args.live:
        metrics = MetricsRegistry()
        heartbeat_ns = RunTelemetry.check_interval(units.us(args.heartbeat_us))
    if args.trace_out:
        trace = Trace(capacity=args.trace_capacity, ring=True)
    if args.trace_spans or args.trace_chrome:
        tracer = PacketTracer(
            policy=args.span_policy,
            rate=args.span_rate,
            capacity=args.span_capacity,
            seed=args.seed,
            metrics=metrics,
        )
    with contextlib.ExitStack() as stack:
        out = {
            flag: stack.enter_context(open(getattr(args, flag), "w", encoding="utf-8"))
            for flag in OUTPUTS
            if getattr(args, flag)
        }
        yield
        result = run_experiment(
            config,
            metrics=metrics,
            trace=trace,
            tracer=tracer,
            heartbeat_ns=heartbeat_ns,
            live_progress=args.live,
        )
        # every number below is read off the reduced summary, like figure's
        # and replicate's; only the in-flight count needs the live fabric
        summary = summarize_run(result)
        if args.json:
            print(result_to_json(summary))
        else:
            print(summary.table())
            print(
                f"[{summary.events_executed} events, {summary.wall_seconds:.2f}s wall, "
                f"{result.fabric.packets_in_flight()} packets still in flight]"
            )
        run_info = {
            "architecture": args.arch,
            "load": args.load,
            "topology": args.topology,
            "seed": args.seed,
        }
        # status lines go to stderr so --json stdout stays parseable
        if args.metrics_out:
            doc = run_snapshot(
                metrics,
                engine=result.fabric.engine,
                telemetry=result.telemetry,
                trace=trace,
                tracer=tracer,
                run_info={
                    **run_info,
                    "warmup_us": args.warmup_us,
                    "measure_us": args.measure_us,
                    "time_scale": args.time_scale,
                },
            )
            dump_snapshot(doc, out["metrics_out"])
            print(f"[metrics snapshot written to {args.metrics_out}]", file=sys.stderr)
        if args.trace_out:
            written = write_trace_jsonl(trace, out["trace_out"])
            print(
                f"[trace written to {args.trace_out}: {written} records, "
                f"{trace.dropped} dropped]",
                file=sys.stderr,
            )
        if args.trace_spans:
            written = write_spans_jsonl(tracer, out["trace_spans"])
            print(
                f"[span traces written to {args.trace_spans}: {written} retained "
                f"({tracer.misses} misses, {tracer.dropped} dropped)]",
                file=sys.stderr,
            )
        if args.trace_chrome:
            events = write_chrome_trace(tracer.records, out["trace_chrome"], run_info=run_info)
            print(
                f"[chrome trace written to {args.trace_chrome}: {events} span "
                "events; load in Perfetto or chrome://tracing]",
                file=sys.stderr,
            )
    return 0
