"""Experiment harness: everything needed to regenerate the paper's evaluation.

- :mod:`~repro.experiments.presets` -- topology scales (the paper's
  128-endpoint MIN plus scaled-down versions with the same shape and
  full bisection bandwidth, for test/bench budgets).
- :mod:`~repro.experiments.config` -- :class:`ExperimentConfig`, one run's
  complete parameterization.
- :mod:`~repro.experiments.runner` -- :func:`run_experiment`: build the
  fabric, attach the Table 1 mix, warm up, measure, return the live
  :class:`RunResult` (fabric, mix, collector).  Its numbers are read
  through one reduced :class:`~repro.exec.summary.RunSummary`:
  ``repro.exec.execute_config(config)`` runs and reduces in one call
  (``.table()``, ``.get(tclass)``, ``.throughput(tclass)``).
- :mod:`~repro.experiments.figures` -- :func:`sweep` runs an
  architectures x loads grid into ``{(arch, load): RunSummary}``; fig2,
  fig3, fig4 and the headline-claim computations (Simple ~ +25%, Advanced
  ~ +5%, frames pinned at the target latency, best-effort weight
  differentiation) draw from those ``results=``.
"""

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.presets import TOPOLOGY_PRESETS, make_topology
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.figures import (
    FigureSeries,
    fig2_control,
    fig3_video,
    fig4_best_effort,
    DEFAULT_LOADS,
    order_error_penalties,
    sweep,
)
from repro.experiments.replication import MetricSummary, Replication, replicate
from repro.experiments.export import (
    figure_to_csv,
    figure_to_json,
    result_to_json,
    write_figure,
)

__all__ = [
    "DEFAULT_LOADS",
    "ExperimentConfig",
    "FigureSeries",
    "MetricSummary",
    "Replication",
    "RunResult",
    "TOPOLOGY_PRESETS",
    "fig2_control",
    "fig3_video",
    "fig4_best_effort",
    "figure_to_csv",
    "figure_to_json",
    "make_topology",
    "order_error_penalties",
    "replicate",
    "result_to_json",
    "run_experiment",
    "scaled_video_mix",
    "sweep",
    "write_figure",
]
