"""The commands that run a campaign on the ``--jobs``/``--cache-dir``
executor: ``figure`` (Figure 2, 3 or 4 from one architectures x loads
sweep), ``claims`` (control latency relative to Ideal, Section 3.4 / 5) and
``replicate`` (one point across seeds, means with 95% CIs)."""

from __future__ import annotations

import argparse
import contextlib
from pathlib import Path

from repro.cli import common
from repro.core.architectures import ARCHITECTURES
from repro.experiments import figures
from repro.experiments.export import figure_serializer
from repro.experiments.replication import check_seeds, replicate


def register(sub) -> None:
    figure_p = sub.add_parser(
        "figure",
        help="regenerate a figure from the paper",
        epilog="fig3 measures in video frames: its windows are 2 + 6 frame "
        "periods at --time-scale, so it accepts --warmup-us/--measure-us "
        "but does not read them.",
    )
    figure_p.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    figure_p.add_argument("--loads", type=float, nargs="+", default=list(figures.DEFAULT_LOADS))
    figure_p.add_argument(
        "--archs", nargs="+", default=list(figures.DEFAULT_ARCHS), choices=sorted(ARCHITECTURES)
    )
    figure_p.add_argument("--out", default=None, help="also export the series (.csv or .json)")
    claims_p = sub.add_parser(
        "claims", help="order-error latency penalties vs the Ideal architecture"
    )
    claims_p.add_argument("--load", type=float, default=1.0)
    replicate_p = sub.add_parser(
        "replicate",
        help="one configuration across seeds, with 95%% CIs",
        epilog="--seeds names every seed that runs: --seed is accepted but not read.",
    )
    common.add_point_args(replicate_p)
    replicate_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    for parser, handler in ((figure_p, figure), (claims_p, claims), (replicate_p, replicate_seeds)):
        common.add_sim_args(parser)
        common.add_sweep_args(parser)
        parser.set_defaults(handler=handler)


def figure(args: argparse.Namespace):
    points = common.sim_configs(args, args.archs, args.loads)
    if args.figure == "fig3":
        # Figure 3 counts in video frames, not microseconds.
        points = {key: figures.fig3_windows(config) for key, config in points.items()}
    draw = {
        "fig2": figures.fig2_control,
        "fig3": figures.fig3_video,
        "fig4": figures.fig4_best_effort,
    }[args.figure]
    executor = common.sweep_executor(args)
    export = contextlib.nullcontext()
    if args.out:
        serialize = figure_serializer(args.out)
        export = open(args.out, "w", encoding="utf-8")
    with export as fp:
        yield
        series = draw(args.archs, args.loads, results=figures.run_points(points, executor))
        print(series.text())
        if fp is not None:
            fp.write(serialize(series))
            print(f"\n[series exported to {Path(args.out)}]")
    common.print_sweep_stats(executor)
    return 0


def claims(args: argparse.Namespace):
    points = common.sim_configs(args, figures.DEFAULT_ARCHS)
    executor = common.sweep_executor(args)
    yield
    penalties = figures.order_error_penalties(
        load=args.load, results=figures.run_points(points, executor)
    )
    print("Control-traffic mean latency relative to Ideal (paper: Simple ~1.25, Advanced ~1.05):")
    for arch, factor in penalties.items():
        print(f"  {ARCHITECTURES[arch].label:<18} x{factor:.3f}")
    common.print_sweep_stats(executor)
    return 0


def replicate_seeds(args: argparse.Namespace):
    (config,) = common.sim_configs(args).values()
    check_seeds(args.seeds)
    executor = common.sweep_executor(args)
    yield
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
    common.print_sweep_stats(executor)
    return 0
