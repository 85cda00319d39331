"""The paper's figures, drawn from a finished sweep.

:func:`sweep` (or :func:`run_points` over configs built elsewhere) runs
the Table 1 workload over an architectures x loads grid; each ``figN_*``
function takes those ``results`` and returns a :class:`FigureSeries` --
the same rows/series the corresponding figure in the paper plots:

- :func:`fig2_control`: average latency of *Control* traffic vs input
  load, plus the latency CDF at the highest load.
- :func:`fig3_video`: average *frame* latency of *Multimedia* traffic vs
  load, plus the frame-latency CDF and the fraction of frames delivered
  within +/-10% of the configured target.
- :func:`fig4_best_effort`: delivered throughput of the *Best-effort*
  and *Background* classes vs load.
- :func:`order_error_penalties`: the Section 3.4/5 headline numbers --
  each architecture's control-latency overhead relative to *Ideal*
  (paper: Simple ~ +25%, Advanced ~ +5%).

The paper's absolute numbers came from the authors' testbed simulator;
what these sweeps reproduce is the *shape*: the ordering of the curves,
the approximate overhead factors, and which architectures can or cannot
differentiate classes.

Sweeps execute through :class:`repro.exec.executor.SweepExecutor`:
``jobs=N`` fans the (architecture, load) grid across a process pool and
``cache_dir`` replays previously-computed points from the on-disk result
cache.  Results merge by submission index, so the returned tables are
byte-identical at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import ExperimentConfig
from repro.sim import units
from repro.stats.report import format_table

if TYPE_CHECKING:  # runtime imports stay lazy: repro.exec imports this package
    from repro.exec.executor import SweepExecutor
    from repro.exec.summary import RunSummary

#: What a sweep returns and a figure function draws.
Results = Dict[Tuple[str, float], "RunSummary"]

__all__ = [
    "FigureSeries",
    "DEFAULT_ARCHS",
    "DEFAULT_LOADS",
    "fig2_control",
    "fig3_video",
    "fig3_windows",
    "fig4_best_effort",
    "order_error_penalties",
    "run_points",
    "sweep",
]

#: Figure order used by the paper.
DEFAULT_ARCHS: Tuple[str, ...] = ("traditional-2vc", "ideal", "simple-2vc", "advanced-2vc")
DEFAULT_LOADS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class FigureSeries:
    """One regenerated figure: tabular series plus optional CDF curves."""

    figure: str
    headers: List[str]
    rows: List[List]
    #: architecture label -> (x, P(X <= x)) curve (for CDF panels)
    cdfs: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def text(self) -> str:
        out = format_table(self.headers, self.rows, title=self.figure)
        if self.cdfs:
            out += "\n\nCDF at full load (latency_us : P(lat <= x)):"
            for label, curve in self.cdfs.items():
                samples = "  ".join(f"{x:.0f}:{p:.3f}" for x, p in curve)
                out += f"\n  {label:<18} {samples}"
        for note in self.notes:
            out += f"\n# {note}"
        return out


def run_points(
    points: Dict[Tuple[str, float], ExperimentConfig],
    executor: Optional["SweepExecutor"] = None,
) -> Results:
    """Execute ``points`` and key each summary like its config.

    Points execute through a :class:`SweepExecutor` -- in-process at
    ``jobs=1``, across a process pool at ``jobs=N`` -- and come back as
    :class:`~repro.exec.summary.RunSummary` in submission order, so the
    result is independent of how it was executed.  Pass ``executor`` to
    run on a campaign-wide one (process pool, result cache, aggregated
    stats); the default is serial and in-memory.
    """
    if executor is None:
        from repro.exec.executor import SweepExecutor

        executor = SweepExecutor()
    return dict(zip(points, executor.run(list(points.values()))))


def sweep(
    archs: Sequence[str],
    loads: Sequence[float],
    *,
    topology: str = "small",
    seed: int = 1,
    warmup_ns: int = units.us(200),
    measure_ns: int = units.ms(1),
    mix_factory: Optional[Callable[[float], object]] = None,
    executor: Optional["SweepExecutor"] = None,
) -> Results:
    """Run every (architecture, load) combination once (:func:`run_points`)."""
    points = {
        (arch, load): ExperimentConfig(
            architecture=arch,
            load=load,
            seed=seed,
            topology=topology,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            mix=mix_factory(load) if mix_factory is not None else None,
        )
        for arch in archs
        for load in loads
    }
    return run_points(points, executor)


def _cdf_curve(result: "RunSummary", tclass: str, points: int) -> List[Tuple[float, float]]:
    cdf = result.get(tclass).message_cdf()
    return [(units.ns_to_us(x), p) for x, p in cdf.curve(points)]


# ----------------------------------------------------------------------
def fig2_control(
    archs: Sequence[str] = DEFAULT_ARCHS,
    loads: Sequence[float] = DEFAULT_LOADS,
    *,
    results: Results,
    cdf_points: int = 12,
) -> FigureSeries:
    """Figure 2: latency of the Control class."""
    series = FigureSeries(
        figure="Figure 2 -- Control traffic latency",
        headers=["architecture", "load", "avg lat (us)", "p99 (us)", "max (us)"],
        rows=[],
    )
    top_load = max(loads)
    for arch in archs:
        label = ARCHITECTURES[arch].label
        for load in loads:
            stats = results[(arch, load)].get("control")
            cdf = stats.message_cdf()
            series.rows.append(
                [
                    label,
                    load,
                    units.ns_to_us(stats.message_latency.mean),
                    units.ns_to_us(cdf.quantile(0.99)),
                    units.ns_to_us(stats.message_latency.max),
                ]
            )
        series.cdfs[label] = _cdf_curve(results[(arch, top_load)], "control", cdf_points)
    return series


def fig3_windows(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` with Figure 3's windows: 2 + 6 of its own video frame
    periods, so a run sees the same number of frames at any time scale."""
    frame_period_ns = round(units.S / config.mix_config.video_fps)
    return config.with_(warmup_ns=2 * frame_period_ns, measure_ns=6 * frame_period_ns)


def fig3_video(
    archs: Sequence[str] = DEFAULT_ARCHS,
    loads: Sequence[float] = (0.4, 0.7, 1.0),
    *,
    results: Results,
    cdf_points: int = 12,
) -> FigureSeries:
    """Figure 3: per-frame latency of the Multimedia class.

    The frame-latency target is the one the results' own mix was built
    with (see :func:`~repro.experiments.config.scaled_video_mix`); the
    reported ``lat/target`` column is scale-free, so the paper's "frames
    arrive at almost exactly the 10 ms target" claim reads directly off it.
    """
    # one sweep, one video time scale: any point's mix names the target
    target_ns = results[(archs[0], loads[0])].config.mix_config.video_target_latency_ns
    time_scale = target_ns / units.ms(10)
    series = FigureSeries(
        figure="Figure 3 -- Multimedia (video frame) latency",
        headers=[
            "architecture",
            "load",
            "avg frame lat (us)",
            "lat/target",
            "p99/target",
            "within +/-10%",
        ],
        rows=[],
        notes=[f"frame-latency target = {units.ns_to_us(target_ns):.0f} us (time_scale={time_scale})"],
    )
    top_load = max(loads)
    for arch in archs:
        label = ARCHITECTURES[arch].label
        for load in loads:
            stats = results[(arch, load)].get("multimedia")
            cdf = stats.message_cdf()
            within = cdf.prob_leq(1.1 * target_ns) - cdf.prob_leq(0.9 * target_ns)
            series.rows.append(
                [
                    label,
                    load,
                    units.ns_to_us(stats.message_latency.mean),
                    stats.message_latency.mean / target_ns,
                    cdf.quantile(0.99) / target_ns,
                    within,
                ]
            )
        series.cdfs[label] = _cdf_curve(results[(arch, top_load)], "multimedia", cdf_points)
    return series


def fig4_best_effort(
    archs: Sequence[str] = DEFAULT_ARCHS,
    loads: Sequence[float] = DEFAULT_LOADS,
    *,
    results: Results,
) -> FigureSeries:
    """Figure 4: delivered throughput of the two best-effort classes."""
    series = FigureSeries(
        figure="Figure 4 -- Best-effort class throughput",
        headers=[
            "architecture",
            "load",
            "best-effort (B/ns)",
            "background (B/ns)",
            "BE/offered",
            "BG/offered",
            "BE:BG",
        ],
        rows=[],
        notes=[
            "EDF architectures separate the classes by deadline weight (2:1); "
            "Traditional cannot (both ride VC1 identically)."
        ],
    )
    for arch in archs:
        label = ARCHITECTURES[arch].label
        for load in loads:
            result = results[(arch, load)]
            be = result.throughput("best-effort")
            bg = result.throughput("background")
            series.rows.append(
                [
                    label,
                    load,
                    be,
                    bg,
                    result.normalized_throughput("best-effort"),
                    result.normalized_throughput("background"),
                    be / bg if bg > 0 else float("inf"),
                ]
            )
    return series


def order_error_penalties(*, load: float = 1.0, results: Results) -> Dict[str, float]:
    """Section 3.4 / Section 5 headline: control-latency overhead vs Ideal.

    Returns ``{architecture: mean_latency / ideal_mean_latency}``.  The
    paper reports ~1.25 for Simple and ~1.05 for Advanced.
    """
    archs = ("ideal", "simple-2vc", "advanced-2vc", "traditional-2vc")
    ideal = results[("ideal", load)].get("control").message_latency.mean
    return {
        arch: results[(arch, load)].get("control").message_latency.mean / ideal
        for arch in archs
    }
