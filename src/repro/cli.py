"""Command-line interface: ``repro-qos`` (or ``python -m repro``).

Subcommands:

- ``run``       -- one simulation (architecture x load x topology), print the
                   per-class QoS summary (``--json`` for machine-readable).
- ``figure``    -- regenerate one of the paper's figures (fig2 / fig3 / fig4)
                   as a text table + CDF series; ``--out fig.csv|fig.json``
                   exports the series.
- ``claims``    -- print the headline order-error penalties vs Ideal.
- ``cost``      -- the Section 6 cost comparison: comparator operations per
                   forwarded packet and static hardware per architecture.
- ``replicate`` -- run one configuration across several seeds and print
                   means with 95% confidence intervals.
- ``utilization`` -- run the mix and print the hottest links, per-tier
                   loads, and the spine-layer fairness index.
- ``metrics``   -- pretty-print one metrics snapshot (from ``run
                   --metrics-out``) or diff two; ``--schema`` validates.
- ``trace``     -- span-trace analysis over a ``run --trace-spans`` dump:
                   ``trace blame`` attributes missed-deadline slack to
                   lifecycle stages; ``trace export`` converts to Chrome
                   trace-event JSON (Perfetto-loadable).
- ``list``      -- enumerate architectures and topology presets.

Examples::

    repro-qos run --arch advanced-2vc --load 0.8 --topology small
    repro-qos figure fig2 --loads 0.4 0.8 1.0 --topology tiny --out fig2.csv
    repro-qos claims --load 1.0
    repro-qos replicate --arch simple-2vc --seeds 1 2 3 4 5
    repro-qos run --load 1.0 --trace-spans spans.jsonl && \\
        repro-qos trace blame spans.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.figures import (
    DEFAULT_ARCHS,
    fig2_control,
    fig3_video,
    fig4_best_effort,
    order_error_penalties,
)
from repro.experiments.presets import TOPOLOGY_PRESETS
from repro.experiments.runner import run_experiment
from repro.sim import units

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qos",
        description="Deadline-based QoS for high-performance networks (IPPS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--topology",
            default="small",
            choices=sorted(TOPOLOGY_PRESETS),
            help="network scale preset (default: small; 'paper' = 128 endpoints)",
        )
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--warmup-us", type=float, default=400.0, help="warm-up window (microseconds)"
        )
        p.add_argument(
            "--measure-us",
            type=float,
            default=1500.0,
            help="measurement window (microseconds)",
        )
        p.add_argument(
            "--time-scale",
            type=float,
            default=0.02,
            help="video time compression (1.0 = paper's real 25 fps / 10 ms target)",
        )

    def parallel(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="simulations to run in parallel (process pool; default: 1 = "
            "in-process; output is byte-identical at any job count)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="content-addressed result cache; warm re-runs replay "
            "finished sweep points without simulating",
        )

    run_p = sub.add_parser("run", help="run one simulation and print per-class QoS")
    run_p.add_argument("--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES))
    run_p.add_argument("--load", type=float, default=1.0)
    run_p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    run_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable the metrics registry and write the JSON snapshot here",
    )
    run_p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable event tracing (ring buffer, newest kept) and write it "
        "as JSONL here",
    )
    run_p.add_argument(
        "--trace-capacity",
        type=int,
        default=100_000,
        metavar="N",
        help="trace ring-buffer size in records (default: 100000)",
    )
    run_p.add_argument(
        "--trace-spans",
        default=None,
        metavar="FILE",
        help="enable span-based packet-lifecycle tracing and write the "
        "retained span chains as JSONL here (see `repro-qos trace`)",
    )
    run_p.add_argument(
        "--span-policy",
        choices=["tail", "head"],
        default="tail",
        help="span sampling policy: 'tail' retains only deadline misses, "
        "'head' samples per-flow at --span-rate (default: tail)",
    )
    run_p.add_argument(
        "--span-rate",
        type=float,
        default=0.01,
        metavar="P",
        help="head-sampling probability per packet in [0, 1] "
        "(default: 0.01; ignored under --span-policy tail)",
    )
    run_p.add_argument(
        "--span-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="span-trace ring size in packets, newest kept (default: 4096)",
    )
    run_p.add_argument(
        "--trace-chrome",
        default=None,
        metavar="FILE",
        help="also write the retained spans as Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing)",
    )
    run_p.add_argument(
        "--heartbeat-us",
        type=float,
        default=200.0,
        metavar="US",
        help="telemetry sampling interval in simulated microseconds "
        "(default: 200; used when --metrics-out or --live is on)",
    )
    run_p.add_argument(
        "--live",
        action="store_true",
        help="print a live progress line (sim-time, events/sec, ETA) to stderr",
    )
    common(run_p)

    fig_p = sub.add_parser("figure", help="regenerate a figure from the paper")
    fig_p.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    fig_p.add_argument(
        "--loads", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8, 1.0]
    )
    fig_p.add_argument(
        "--archs", nargs="+", default=list(DEFAULT_ARCHS), choices=sorted(ARCHITECTURES)
    )
    fig_p.add_argument(
        "--out", default=None, help="also export the series (.csv or .json)"
    )
    common(fig_p)
    parallel(fig_p)

    claims_p = sub.add_parser(
        "claims", help="order-error latency penalties vs the Ideal architecture"
    )
    claims_p.add_argument("--load", type=float, default=1.0)
    common(claims_p)
    parallel(claims_p)

    cost_p = sub.add_parser(
        "cost", help="comparator work and hardware per architecture (Section 6)"
    )
    cost_p.add_argument("--load", type=float, default=1.0)
    common(cost_p)

    rep_p = sub.add_parser(
        "replicate", help="one configuration across seeds, with 95%% CIs"
    )
    rep_p.add_argument("--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES))
    rep_p.add_argument("--load", type=float, default=1.0)
    rep_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    common(rep_p)
    parallel(rep_p)

    util_p = sub.add_parser(
        "utilization", help="link loads, hotspots, and spine fairness"
    )
    util_p.add_argument("--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES))
    util_p.add_argument("--load", type=float, default=1.0)
    util_p.add_argument("--hotspots", type=int, default=8)
    common(util_p)

    sub.add_parser("list", help="list architectures and topology presets")

    met_p = sub.add_parser(
        "metrics", help="pretty-print one metrics snapshot or diff two"
    )
    met_p.add_argument(
        "snapshots",
        nargs="+",
        metavar="SNAPSHOT",
        help="one snapshot file to pretty-print, or two to diff",
    )
    met_p.add_argument(
        "--schema",
        default=None,
        metavar="FILE",
        help="validate the snapshot(s) against this JSON schema first "
        "(e.g. docs/metrics_schema.json); exit 1 on violations",
    )

    trace_p = sub.add_parser(
        "trace", help="analyze a span-trace dump from `run --trace-spans`"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    blame_p = trace_sub.add_parser(
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
    blame_p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    export_p = trace_sub.add_parser(
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

    lint_p = sub.add_parser(
        "lint", help="run simlint (simulator-specific static analysis)"
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text; sarif emits SARIF 2.1.0 for "
        "code-scanning dashboards)",
    )
    lint_p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids or prefixes to run (default: all), "
        "e.g. SIM001,SIM104 or SIM4 for the whole temporal family",
    )
    lint_p.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids or prefixes to skip, subtracted "
        "from the --select set (or from all rules), e.g. SIM103,SIM3",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="list the registered rules and exit"
    )
    lint_p.add_argument(
        "--project",
        action="store_true",
        help="build the whole-program model and run the cross-module "
        "SIM1xx rules in addition to the per-file rules",
    )
    lint_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="incremental cache directory for --project runs (a warm run "
        "over an unchanged tree re-parses zero files)",
    )
    lint_p.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a rule's description, rationale, and a minimal "
        "bad/good example, then exit (e.g. --explain SIM101)",
    )
    lint_p.add_argument(
        "--fix",
        action="store_true",
        help="apply the machine-applicable fixes some findings carry "
        "(lift submitted lambdas, hash() -> stable_hash()), then re-lint",
    )
    lint_p.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diffs instead of writing files",
    )
    lint_p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress (but count) the findings recorded in FILE; the "
        "gate fails only on findings not in the baseline",
    )
    lint_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="snapshot the current findings into the baseline file "
        "(--baseline FILE, default lint-baseline.json) and exit 0",
    )
    lint_p.add_argument(
        "--profile",
        default=None,
        metavar="PSTATS",
        help="with --project: rank SIM3xx findings by the cumulative "
        "time in this cProfile/pstats dump (see `repro-qos profile "
        "run`); top-decile findings are flagged hot:, unmeasured ones "
        "demoted to notes and excluded from the exit gate",
    )
    lint_p.add_argument(
        "--memprofile",
        default=None,
        metavar="JSON",
        help="with --project: rank SIM5xx findings by the bytes "
        "measured in this tracemalloc dump (see `repro-qos profile "
        "mem`); top-decile findings are flagged hot:, unmeasured ones "
        "demoted to notes and excluded from the exit gate",
    )

    prof_p = sub.add_parser(
        "profile",
        help="produce the dumps `lint --profile`/`--memprofile` rank by",
    )
    prof_sub = prof_p.add_subparsers(dest="profile_command", required=True)
    prof_run_p = prof_sub.add_parser(
        "run", help="run one simulation under cProfile and dump pstats"
    )
    prof_run_p.add_argument(
        "--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES)
    )
    prof_run_p.add_argument("--load", type=float, default=1.0)
    prof_run_p.add_argument(
        "-o",
        "--out",
        default="prof.pstats",
        metavar="FILE",
        help="pstats dump path (default: prof.pstats)",
    )
    common(prof_run_p)
    prof_mem_p = prof_sub.add_parser(
        "mem",
        help="run one simulation under tracemalloc and dump per-site "
        "allocations as JSON",
    )
    prof_mem_p.add_argument(
        "--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES)
    )
    prof_mem_p.add_argument("--load", type=float, default=1.0)
    prof_mem_p.add_argument(
        "--top",
        type=int,
        default=512,
        metavar="N",
        help="keep the N largest allocation sites (default: 512)",
    )
    prof_mem_p.add_argument(
        "-o",
        "--out",
        default="mem.json",
        metavar="FILE",
        help="JSON dump path (default: mem.json)",
    )
    common(prof_mem_p)
    return parser


def _config_from(args: argparse.Namespace, *, arch: str, load: float) -> ExperimentConfig:
    return ExperimentConfig(
        architecture=arch,
        load=load,
        seed=args.seed,
        topology=args.topology,
        warmup_ns=units.us(args.warmup_us),
        measure_ns=units.us(args.measure_us),
        mix=scaled_video_mix(load, args.time_scale),
    )


def _bad_number(args: argparse.Namespace) -> Optional[str]:
    """Why the shared numeric options are out of range, or ``None``.

    Builds the configuration the command would run with, once per load,
    so the ranges stay defined in one place:
    :class:`~repro.experiments.config.ExperimentConfig` (windows),
    :class:`~repro.traffic.mix.TrafficMixConfig` (load) and
    :func:`~repro.experiments.config.scaled_video_mix` (time scale).
    """
    loads = args.loads if "loads" in args else [args.load]
    try:
        for load in loads:
            _config_from(args, arch="advanced-2vc", load=load)
    except (ValueError, OverflowError) as exc:  # OverflowError: --measure-us inf
        return str(exc)
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    metrics = None
    trace = None
    tracer = None
    if args.metrics_out or args.live:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if args.trace_out:
        from repro.sim.monitor import Trace

        trace = Trace(capacity=args.trace_capacity, ring=True)
    if args.trace_spans or args.trace_chrome:
        from repro.obs.metrics import NULL_METRICS
        from repro.obs.tracing import PacketTracer

        try:
            tracer = PacketTracer(
                policy=args.span_policy,
                rate=args.span_rate,
                capacity=args.span_capacity,
                seed=args.seed,
                metrics=metrics if metrics is not None else NULL_METRICS,
            )
        except ValueError as exc:
            print(f"repro-qos run: {exc}", file=sys.stderr)
            return 2
    # Open every output before simulating: an unwritable path is a usage
    # error now, not a traceback after the run.
    with contextlib.ExitStack() as stack:
        try:
            out = {
                flag: stack.enter_context(open(getattr(args, flag), "w", encoding="utf-8"))
                for flag in ("metrics_out", "trace_out", "trace_spans", "trace_chrome")
                if getattr(args, flag)
            }
        except OSError as exc:
            print(f"repro-qos run: {exc}", file=sys.stderr)
            return 2
        return _run_and_export(args, metrics, trace, tracer, out)


def _run_and_export(args: argparse.Namespace, metrics, trace, tracer, out: dict) -> int:
    observing = metrics is not None or args.live
    result = run_experiment(
        _config_from(args, arch=args.arch, load=args.load),
        metrics=metrics,
        trace=trace,
        tracer=tracer,
        heartbeat_ns=units.us(args.heartbeat_us) if observing else None,
        live_progress=args.live,
    )
    if args.json:
        from repro.experiments.export import result_to_json

        print(result_to_json(result))
    else:
        print(result.summary())
    if args.metrics_out:
        from repro.obs.snapshot import dump_snapshot, run_snapshot

        doc = run_snapshot(
            metrics,
            engine=result.fabric.engine,
            telemetry=result.telemetry,
            trace=trace,
            tracer=tracer,
            run_info={
                "architecture": args.arch,
                "load": args.load,
                "topology": args.topology,
                "seed": args.seed,
                "warmup_us": args.warmup_us,
                "measure_us": args.measure_us,
                "time_scale": args.time_scale,
            },
        )
        dump_snapshot(doc, out["metrics_out"])
        # status goes to stderr so --json stdout stays parseable
        print(f"[metrics snapshot written to {args.metrics_out}]", file=sys.stderr)
    if args.trace_out:
        from repro.obs.snapshot import write_trace_jsonl

        written = write_trace_jsonl(trace, out["trace_out"])
        print(
            f"[trace written to {args.trace_out}: {written} records, "
            f"{trace.dropped} dropped]",
            file=sys.stderr,
        )
    if args.trace_spans:
        from repro.obs.tracing import write_spans_jsonl

        written = write_spans_jsonl(tracer, out["trace_spans"])
        print(
            f"[span traces written to {args.trace_spans}: {written} retained "
            f"({tracer.misses} misses, {tracer.dropped} dropped)]",
            file=sys.stderr,
        )
    if args.trace_chrome:
        from repro.obs.tracing import write_chrome_trace

        events = write_chrome_trace(
            tracer.records,
            out["trace_chrome"],
            run_info={
                "architecture": args.arch,
                "load": args.load,
                "topology": args.topology,
                "seed": args.seed,
            },
        )
        print(
            f"[chrome trace written to {args.trace_chrome}: {events} span "
            "events; load in Perfetto or chrome://tracing]",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.tracing import read_spans_jsonl

    try:
        header, traces = read_spans_jsonl(args.spans)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"repro-qos trace: {exc}", file=sys.stderr)
        return 2
    if args.trace_command == "export":
        from repro.obs.tracing import write_chrome_trace

        with open(args.out, "w", encoding="utf-8") as fp:
            events = write_chrome_trace(traces, fp, run_info={"source": args.spans})
        print(
            f"[chrome trace written to {args.out}: {events} span events "
            f"from {len(traces)} packet(s)]",
            file=sys.stderr,
        )
        return 0
    from repro.obs.blame import analyze_blame

    try:
        report = analyze_blame(traces, missed_only=not args.all, top=args.top)
    except ValueError as exc:
        print(f"repro-qos trace blame: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.format_json(), end="")
    else:
        policy = header.get("policy", "?")
        print(f"[{len(traces)} retained trace(s), policy {policy}]", file=sys.stderr)
        print(report.format(), end="")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.snapshot import diff_snapshots, format_diff, format_snapshot, load_snapshot

    if len(args.snapshots) > 2:
        print(
            "repro-qos metrics: expected one snapshot (print) or two (diff), "
            f"got {len(args.snapshots)}",
            file=sys.stderr,
        )
        return 2
    try:
        docs = [load_snapshot(path) for path in args.snapshots]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro-qos metrics: {exc}", file=sys.stderr)
        return 2
    if args.schema:
        from repro.obs.schema import validate

        try:
            with open(args.schema, "r", encoding="utf-8") as fp:
                schema = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro-qos metrics: cannot load schema: {exc}", file=sys.stderr)
            return 2
        failed = False
        for path, doc in zip(args.snapshots, docs):
            errors = validate(doc, schema)
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
            failed = failed or bool(errors)
        if failed:
            return 1
        print(f"[schema ok: {', '.join(args.snapshots)}]", file=sys.stderr)
    if len(docs) == 1:
        print(format_snapshot(docs[0]))
    else:
        diff = diff_snapshots(docs[0], docs[1])
        print(format_diff(diff, label_a=args.snapshots[0], label_b=args.snapshots[1]))
    return 0


def _sweep_executor(args: argparse.Namespace):
    """The campaign executor for one CLI invocation (--jobs/--cache-dir)."""
    from repro.exec.executor import SweepExecutor

    return SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir)


def _print_sweep_stats(executor) -> None:
    # stats go to stderr so stdout stays byte-identical at any --jobs
    # (and CI can grep the warm-run cache-hit count here)
    stats = executor.stats()
    print(
        f"[sweep: {stats['tasks']} points, {stats['cache_hits']} cached, "
        f"{stats['executed']} executed, jobs={stats['jobs']}]",
        file=sys.stderr,
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    executor = _sweep_executor(args)
    kwargs = dict(
        archs=tuple(args.archs),
        loads=tuple(args.loads),
        topology=args.topology,
        seed=args.seed,
        executor=executor,
    )
    if args.figure == "fig2":
        series = fig2_control(
            warmup_ns=units.us(args.warmup_us),
            measure_ns=units.us(args.measure_us),
            **kwargs,
        )
    elif args.figure == "fig3":
        series = fig3_video(time_scale=args.time_scale, **kwargs)
    else:
        series = fig4_best_effort(
            warmup_ns=units.us(args.warmup_us),
            measure_ns=units.us(args.measure_us),
            **kwargs,
        )
    print(series.text())
    if args.out:
        from repro.experiments.export import write_figure

        path = write_figure(series, args.out)
        print(f"\n[series exported to {path}]")
    _print_sweep_stats(executor)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.analysis import measure_scheduling_cost
    from repro.experiments.presets import make_topology
    from repro.stats.report import format_table

    rows = []
    for name in ("traditional-2vc", "simple-2vc", "advanced-2vc", "ideal"):
        report = measure_scheduling_cost(
            ARCHITECTURES[name],
            topology=make_topology(args.topology),
            seed=args.seed,
            horizon_ns=units.us(args.measure_us),
            mix_config=scaled_video_mix(args.load, args.time_scale),
        )
        rows.append(report.row())
    print(
        format_table(
            [
                "architecture",
                "packets",
                "comparisons/pkt",
                "FIFO mems/port",
                "sorting HW",
                "arbiter comparators",
            ],
            rows,
            title="Scheduling cost (Section 6)",
        )
    )
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.experiments.replication import replicate

    config = _config_from(args, arch=args.arch, load=args.load)
    executor = _sweep_executor(args)
    replication = replicate(config, args.seeds, executor=executor)
    print(
        f"{ARCHITECTURES[args.arch].label}  load={args.load:.0%}  "
        f"{len(args.seeds)} seeds {tuple(args.seeds)}\n"
    )
    for tclass in ("control", "multimedia", "best-effort", "background"):
        try:
            latency = replication.mean_latency(tclass)
            throughput = replication.throughput(tclass)
        except KeyError:
            continue
        lat_lo, lat_hi = latency.ci95
        tput_lo, tput_hi = throughput.ci95
        print(
            f"  {tclass:<12} latency {latency.mean / 1e3:9.2f} us "
            f"[{lat_lo / 1e3:.2f}, {lat_hi / 1e3:.2f}]   "
            f"throughput {throughput.mean:7.3f} B/ns "
            f"[{tput_lo:.3f}, {tput_hi:.3f}]"
        )
    _print_sweep_stats(executor)
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    executor = _sweep_executor(args)
    penalties = order_error_penalties(
        load=args.load,
        topology=args.topology,
        seed=args.seed,
        warmup_ns=units.us(args.warmup_us),
        measure_ns=units.us(args.measure_us),
        executor=executor,
    )
    print("Control-traffic mean latency relative to Ideal (paper: Simple ~1.25, Advanced ~1.05):")
    for arch, factor in penalties.items():
        print(f"  {ARCHITECTURES[arch].label:<18} x{factor:.3f}")
    _print_sweep_stats(executor)
    return 0


def _cmd_utilization(args: argparse.Namespace) -> int:
    from repro.analysis import measure_utilization

    result = run_experiment(_config_from(args, arch=args.arch, load=args.load))
    horizon = result.config.end_ns
    report = measure_utilization(result.fabric, horizon)
    print(report.table(args.hotspots))
    print(
        f"\nspine-layer fairness index (Jain): "
        f"{report.fairness_index('fabric-up'):.3f}  (1.0 = perfectly balanced)"
    )
    return 0


def _cmd_list() -> int:
    print("Architectures (Section 4.1):")
    for name, arch in ARCHITECTURES.items():
        print(f"  {name:<16} {arch.label}")
    print("\nTopology presets:")
    for name, (leaves, hosts, spines) in TOPOLOGY_PRESETS.items():
        print(
            f"  {name:<8} {leaves * hosts:>4} hosts "
            f"({leaves} leaves x {hosts} hosts, {spines} spines)"
        )
    return 0


def _fixture_examples(rule_id: str):
    """(label, text) pairs for a rule's bad/good fixtures, if the
    fixture tree is on disk (repo checkouts; not installed packages)."""
    from pathlib import Path

    candidates = [
        Path("tests/lint/fixtures"),
        Path(__file__).resolve().parents[2] / "tests" / "lint" / "fixtures",
    ]
    fixtures = next((c for c in candidates if c.is_dir()), None)
    if fixtures is None:
        return []
    stem = rule_id.lower()
    examples = []
    for kind in ("bad", "good"):
        for match in sorted(fixtures.glob(f"**/{kind}/**/{stem}_*")) + sorted(
            fixtures.glob(f"**/{kind}/{stem}_*")
        ):
            files = (
                sorted(p for p in match.rglob("*.py"))
                if match.is_dir()
                else [match]
            )
            for file_path in files:
                try:
                    text = file_path.read_text(encoding="utf-8")
                except OSError:
                    continue
                examples.append((kind, str(file_path), text))
            break  # one fixture (file or tree) per kind is plenty
    return examples


def _cmd_lint_explain(query: str) -> int:
    from repro.lint import PROJECT_RULES, RULES

    all_rules = {**RULES, **PROJECT_RULES}
    wanted = query.strip()
    rule = all_rules.get(wanted.upper()) or next(
        (r for r in all_rules.values() if r.name == wanted.lower()), None
    )
    if rule is None:
        known = ", ".join(sorted(all_rules))
        print(f"repro-qos lint: unknown rule {query!r} (known: {known})", file=sys.stderr)
        return 2
    print(f"{rule.id} [{rule.name}]  (suppress: # simlint: allow-{rule.name})")
    print(f"  {rule.description}")
    if rule.rationale:
        print(f"\nRationale:\n  {rule.rationale}")
    examples = _fixture_examples(rule.id)
    if examples:
        for kind, path, text in examples:
            print(f"\n{kind.capitalize()} example ({path}):")
            for line in text.rstrip().splitlines():
                print(f"  {line}")
    else:
        for kind, text in (("Bad", rule.example_bad), ("Good", rule.example_good)):
            if text:
                print(f"\n{kind} example:")
                for line in text.rstrip().splitlines():
                    print(f"  {line}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import PROJECT_RULES, RULES, lint_paths, lint_project

    if args.explain:
        return _cmd_lint_explain(args.explain)
    if args.list_rules:
        for registry in (RULES, PROJECT_RULES):
            for rule_id in sorted(registry):
                rule = registry[rule_id]
                print(f"{rule.id}  allow-{rule.name:<28} {rule.description}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    if args.profile and not args.project:
        print(
            "repro-qos lint: --profile requires --project "
            "(the SIM3xx rules it ranks are project rules)",
            file=sys.stderr,
        )
        return 2
    if args.memprofile and not args.project:
        print(
            "repro-qos lint: --memprofile requires --project "
            "(the SIM5xx rules it ranks are project rules)",
            file=sys.stderr,
        )
        return 2

    def run_lint():
        if args.project:
            return lint_project(
                args.paths,
                cache_dir=args.cache_dir,
                select=select,
                ignore=ignore,
                profile=args.profile,
                memprofile=args.memprofile,
            )
        return lint_paths(args.paths, select=select, ignore=ignore), None

    cache_stats = None
    try:
        violations, cache_stats = run_lint()

        fix_report = None
        if args.fix:
            from repro.lint import apply_fixes

            fix_report = apply_fixes(violations, dry_run=args.dry_run)
            if fix_report.files_changed and not args.dry_run:
                # The gate and the output must describe the *fixed* tree.
                violations, cache_stats = run_lint()
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"repro-qos lint: {exc}", file=sys.stderr)
        return 2

    baselined = []
    if args.update_baseline:
        from repro.lint import Baseline

        baseline_path = args.baseline or "lint-baseline.json"
        Baseline.from_violations(violations).save(baseline_path)
        print(
            f"repro-qos lint: baselined {len(violations)} finding(s) "
            f"into {baseline_path}",
            file=sys.stderr,
        )
        violations, baselined = [], violations
    elif args.baseline:
        from repro.lint import Baseline

        baseline = Baseline.load(args.baseline)
        violations, baselined = baseline.partition(violations)

    if args.format == "sarif":
        from repro.lint import to_sarif

        print(json.dumps(to_sarif(violations, suppressed=baselined), indent=2))
    elif args.format == "json":
        payload = {
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
        }
        if args.baseline or args.update_baseline:
            payload["baselined"] = len(baselined)
        if fix_report is not None:
            payload["fixes"] = fix_report.to_dict()
        if cache_stats is not None:
            cache_stats = dict(cache_stats)
            profile_stats = cache_stats.pop("profile", None)
            if profile_stats is not None:
                payload["profile"] = profile_stats
            memprofile_stats = cache_stats.pop("memprofile", None)
            if memprofile_stats is not None:
                payload["memprofile"] = memprofile_stats
            payload["cache"] = cache_stats
        print(json.dumps(payload, indent=2))
    else:
        if fix_report is not None:
            if args.dry_run:
                for path in fix_report.files_changed:
                    print(fix_report.diffs[path], end="")
            for note in fix_report.notes:
                verb = "would fix" if args.dry_run else "fixed"
                print(f"{verb} {note}", file=sys.stderr)
        for violation in violations:
            print(violation.format())
        if violations:
            suffix = f" ({len(baselined)} baselined)" if baselined else ""
            print(f"\n{len(violations)} violation(s) found{suffix}")
        elif baselined:
            print(
                f"no new violations ({len(baselined)} baselined)",
                file=sys.stderr,
            )
        if cache_stats is not None:
            print(
                f"[project: {cache_stats['files']} files, "
                f"{cache_stats['hits']} cached, "
                f"{cache_stats['misses']} parsed]",
                file=sys.stderr,
            )
            profile_stats = cache_stats.get("profile")
            if profile_stats is not None:
                print(
                    f"[profile: {profile_stats['total_seconds']}s total, "
                    f"{profile_stats['matched']}/{profile_stats['ranked']} "
                    f"findings measured: {profile_stats['hot']} hot, "
                    f"{profile_stats['warm']} warm, "
                    f"{profile_stats['cold']} cold]",
                    file=sys.stderr,
                )
            memprofile_stats = cache_stats.get("memprofile")
            if memprofile_stats is not None:
                print(
                    f"[memprofile: {memprofile_stats['total_bytes']} bytes "
                    f"total, "
                    f"{memprofile_stats['matched']}/{memprofile_stats['ranked']} "
                    f"findings measured: {memprofile_stats['hot']} hot, "
                    f"{memprofile_stats['warm']} warm, "
                    f"{memprofile_stats['cold']} cold]",
                    file=sys.stderr,
                )
    # Cold findings are profile-demoted notes: reported, but they never
    # fail the gate -- the whole point of ranking by measured cost.
    gating = [
        v for v in violations if (v.profile or {}).get("bucket") != "cold"
    ]
    return 1 if gating else 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    import cProfile

    from repro.exec.summary import execute_config

    config = _config_from(args, arch=args.arch, load=args.load)
    profiler = cProfile.Profile()
    profiler.enable()
    summary = execute_config(config)
    profiler.disable()
    profiler.dump_stats(args.out)
    print(
        f"repro-qos profile: {summary.events_executed} events in "
        f"{summary.wall_seconds:.3f}s wall -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_profile_mem(args: argparse.Namespace) -> int:
    import json
    import tracemalloc

    from repro.exec.summary import execute_config

    config = _config_from(args, arch=args.arch, load=args.load)
    tracemalloc.start()
    try:
        summary = execute_config(config)
        snapshot = tracemalloc.take_snapshot()
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    sites = [
        {
            "file": stat.traceback[0].filename,
            "line": stat.traceback[0].lineno,
            "size_bytes": stat.size,
            "count": stat.count,
        }
        for stat in stats[: max(0, args.top)]
        if not stat.traceback[0].filename.startswith("<")
    ]
    payload = {
        "schema": "simlint-memprofile/v1",
        "total_bytes": sum(stat.size for stat in stats),
        "peak_bytes": peak_bytes,
        "events_executed": summary.events_executed,
        "sites": sites,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"repro-qos profile: {summary.events_executed} events, "
        f"{payload['total_bytes']} bytes live across {len(sites)} sites "
        f"(peak {peak_bytes}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if "measure_us" in args:  # every subcommand that simulates (see `common`)
        message = _bad_number(args)
        if message is not None:
            print(f"repro-qos {args.command}: {message}", file=sys.stderr)
            return 2
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "claims":
        return _cmd_claims(args)
    if args.command == "cost":
        return _cmd_cost(args)
    if args.command == "replicate":
        return _cmd_replicate(args)
    if args.command == "utilization":
        return _cmd_utilization(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "profile":
        if args.profile_command == "mem":
            return _cmd_profile_mem(args)
        return _cmd_profile_run(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
