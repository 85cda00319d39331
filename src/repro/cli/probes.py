"""The commands that run one point to measure something other than QoS:
``cost`` (Section 6: comparator work per forwarded packet, static hardware),
``utilization`` (hottest links, per-tier loads, spine fairness) and
``profile run|mem`` (the simulator's own time and memory, as the dumps ``lint
--profile``/``--memprofile`` rank by) -- plus ``list``, which runs nothing."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import common
from repro.core.architectures import ARCHITECTURES
from repro.experiments.presets import TOPOLOGY_PRESETS, make_topology
from repro.experiments.runner import run_experiment
from repro.stats.report import format_table

#: Rows of the cost table, cheapest hardware first.
COST_ARCHS = ("traditional-2vc", "simple-2vc", "advanced-2vc", "ideal")


def register(sub) -> None:
    cost_p = sub.add_parser(
        "cost",
        help="comparator work and hardware per architecture (Section 6)",
        epilog="Comparators are counted from time zero over --measure-us: "
        "--warmup-us is accepted but not read.",
    )
    cost_p.add_argument("--load", type=float, default=1.0)
    common.add_sim_args(cost_p)
    cost_p.set_defaults(handler=cost)
    util_p = sub.add_parser("utilization", help="link loads, hotspots, and spine fairness")
    common.add_point_args(util_p)
    util_p.add_argument("--hotspots", type=int, default=8)
    common.add_sim_args(util_p)
    util_p.set_defaults(handler=utilization)
    list_p = sub.add_parser("list", help="list architectures and topology presets")
    list_p.set_defaults(handler=listing)
    profile_p = sub.add_parser(
        "profile",
        help="produce the dumps `lint --profile`/`--memprofile` rank by",
    )
    family = profile_p.add_subparsers(dest="profile_command", required=True)
    run_p = family.add_parser("run", help="run one simulation under cProfile and dump pstats")
    common.add_point_args(run_p)
    run_p.add_argument(
        "-o",
        "--out",
        default="prof.pstats",
        metavar="FILE",
        help="pstats dump path (default: prof.pstats)",
    )
    common.add_sim_args(run_p)
    run_p.set_defaults(handler=profile_run)
    mem_p = family.add_parser(
        "mem",
        help="run one simulation under tracemalloc and dump per-site "
        "allocations as JSON",
    )
    common.add_point_args(mem_p)
    mem_p.add_argument(
        "--top",
        type=int,
        default=512,
        metavar="N",
        help="keep the N largest allocation sites (default: 512)",
    )
    mem_p.add_argument(
        "-o",
        "--out",
        default="mem.json",
        metavar="FILE",
        help="JSON dump path (default: mem.json)",
    )
    common.add_sim_args(mem_p)
    mem_p.set_defaults(handler=profile_mem)


def cost(args: argparse.Namespace):
    from repro.analysis import measure_scheduling_cost

    configs = common.sim_configs(args, COST_ARCHS).values()
    yield
    rows = [
        measure_scheduling_cost(
            ARCHITECTURES[config.architecture],
            topology=make_topology(config.topology),
            seed=config.seed,
            horizon_ns=config.measure_ns,
            mix_config=config.mix,
        ).row()
        for config in configs
    ]
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


def utilization(args: argparse.Namespace):
    from repro.analysis import measure_utilization

    (config,) = common.sim_configs(args).values()
    yield
    result = run_experiment(config)
    report = measure_utilization(result.fabric, config.end_ns)
    print(report.table(args.hotspots))
    print(
        f"\nspine-layer fairness index (Jain): "
        f"{report.fairness_index('fabric-up'):.3f}  (1.0 = perfectly balanced)"
    )
    return 0


def listing(args: argparse.Namespace):
    yield  # no input to check
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


def profile_run(args: argparse.Namespace):
    import cProfile

    from repro.exec.summary import execute_config

    (config,) = common.sim_configs(args).values()
    open(args.out, "wb").close()  # dump_stats() reopens it; unwritable is a usage error
    yield
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


def profile_mem(args: argparse.Namespace):
    import tracemalloc

    from repro.exec.summary import execute_config

    (config,) = common.sim_configs(args).values()
    with open(args.out, "w", encoding="utf-8") as handle:
        yield
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
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"repro-qos profile: {summary.events_executed} events, "
        f"{payload['total_bytes']} bytes live across {len(sites)} sites "
        f"(peak {peak_bytes}) -> {args.out}",
        file=sys.stderr,
    )
    return 0
