"""The argument groups subcommands share, each defined once with one reader:
the simulation point (:func:`add_sim_args`, :func:`add_point_args` ->
:func:`sim_configs`) and the campaign pair ``--jobs``/``--cache-dir``
(:func:`add_sweep_args` -> :func:`sweep_executor`).

The readers check nothing themselves: the valid ranges stay with what they
build (``ExperimentConfig``, ``TrafficMixConfig``, ``scaled_video_mix``,
``SweepExecutor``), whose ``ValueError`` reaches ``main`` as a usage error
because a handler calls the readers before its ``yield``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.presets import TOPOLOGY_PRESETS
from repro.sim import units

if TYPE_CHECKING:  # repro.exec loads only for the commands that sweep
    from repro.exec.executor import SweepExecutor


def add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", default="advanced-2vc", choices=sorted(ARCHITECTURES))
    parser.add_argument("--load", type=float, default=1.0)


def add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default="small",
        choices=sorted(TOPOLOGY_PRESETS),
        help="network scale preset (default: small; 'paper' = 128 endpoints)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--warmup-us", type=float, default=400.0, help="warm-up window (microseconds)"
    )
    parser.add_argument(
        "--measure-us",
        type=float,
        default=1500.0,
        help="measurement window (microseconds)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.02,
        help="video time compression (1.0 = paper's real 25 fps / 10 ms target)",
    )


def sim_configs(
    args: argparse.Namespace,
    archs: Optional[Sequence[str]] = None,
    loads: Optional[Sequence[float]] = None,
) -> Dict[Tuple[str, float], ExperimentConfig]:
    """The points a command simulates, keyed and ordered like ``sweep()``'s
    (architecture-major), so :func:`~repro.experiments.figures.run_points`
    turns them into the ``results=`` the figure functions take.

    ``archs``/``loads`` default to the command's own ``--arch``/``--load``.
    Every point runs the Table 1 mix with video compressed by
    ``--time-scale``, whichever subcommand asks.
    """
    archs = [args.arch] if archs is None else archs
    loads = [args.load] if loads is None else loads
    return {
        (arch, load): ExperimentConfig(
            architecture=arch,
            load=load,
            seed=args.seed,
            topology=args.topology,
            warmup_ns=units.us(args.warmup_us),
            measure_ns=units.us(args.measure_us),
            mix=scaled_video_mix(load, args.time_scale),
        )
        for arch in archs
        for load in loads
    }


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulations to run in parallel (process pool; default: 1 = "
        "in-process; output is byte-identical at any job count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache; warm re-runs replay "
        "finished sweep points without simulating",
    )


def sweep_executor(args: argparse.Namespace) -> "SweepExecutor":
    """The campaign executor for one CLI invocation (--jobs/--cache-dir)."""
    from repro.exec.executor import SweepExecutor

    return SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir)


def print_sweep_stats(executor: "SweepExecutor") -> None:
    # stats go to stderr so stdout stays byte-identical at any --jobs
    # (and CI can grep the warm-run cache-hit count here)
    stats = executor.stats()
    print(
        f"[sweep: {stats['tasks']} points, {stats['cache_hits']} cached, "
        f"{stats['executed']} executed, jobs={stats['jobs']}]",
        file=sys.stderr,
    )
