"""Worker-reachability analysis under the SIM2xx parallel-safety rules.

``repro.exec`` fans simulations out over a :class:`ProcessPoolExecutor`
and guarantees byte-identical merges; that guarantee silently dies the
moment worker-executed code mutates shared module state, feeds a
process-varying value (``hash()``, pids, wall clock) into a digest, or
writes a shared file non-atomically.  This module computes *which
functions can execute inside a worker process*, so the SIM201-SIM205
rules (:mod:`repro.lint.project_rules`) only fire where fork divergence
can actually happen.

Roots of the reachability closure:

- every callable resolved from a **pool submission site** recorded by
  the dataflow pass (``pool.submit(fn, ...)``, ``executor.map(fn, it)``,
  ``SweepExecutor(worker=fn)``);
- the **enclosing function** of each lambda / local-function submission
  -- closure bodies are analyzed into the enclosing
  :class:`~repro.lint.dataflow.FunctionFact`, so the encloser stands in
  for the payload (a deliberate over-approximation: parent-side calls of
  that function are swept in too, which errs toward reporting);
- :data:`KNOWN_WORKER_ENTRY_POINTS` -- the functions this project is
  *known* to hand to pools through indirection no static resolver can
  follow (instance attributes, config tables).

The closure itself is :meth:`~repro.lint.callgraph.CallGraph.
reachable_from`, whose witness map lets every finding name the worker
entry point it is reachable from.  The analysis is memoized per call
graph so the five SIM2xx rules share one traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.callgraph import CallGraph, Node, per_graph
from repro.lint.dataflow import FunctionFact
from repro.lint.projectmodel import ModuleSummary, ProjectModel

__all__ = ["SubmissionSite", "analyze_parallel"]

#: Worker entry points reached through indirection the resolver cannot
#: see (``SweepExecutor`` stores its worker on an instance attribute).
#: Dotted origins; entries absent from the scanned tree are ignored, so
#: linting a fixture directory does not drag ``src/`` semantics along.
KNOWN_WORKER_ENTRY_POINTS: Tuple[str, ...] = ("repro.exec.summary.execute_config",)


@dataclass
class SubmissionSite:
    """One pool-submission record, tied back to its module/function."""

    summary: ModuleSummary
    fact: FunctionFact
    record: Dict[str, Any]

    @property
    def line(self) -> int:
        return int(self.record["line"])

    @property
    def col(self) -> int:
        return int(self.record["col"])

    @property
    def kind(self) -> str:
        return str(self.record["kind"])


@dataclass
class ParallelAnalysis:
    """Submission sites + worker-reachability closure over the model."""

    #: Every pool submission in the scanned tree, in path order.
    submissions: List[SubmissionSite] = field(default_factory=list)
    #: Root node -> human-readable reason it executes in a worker.
    roots: Dict[Node, str] = field(default_factory=dict)
    #: Worker-reachable node -> the root it was first discovered from.
    reachable: Dict[Node, Node] = field(default_factory=dict)

    def reason_for(self, node: Node) -> str:
        """Why ``node`` is worker-reachable (via its witness root)."""
        witness = self.reachable.get(node)
        if witness is None:
            return "not worker-reachable"
        reason = self.roots.get(witness, "worker entry point")
        if witness == node:
            return reason
        return f"reachable from `{witness[0]}.{witness[1]}` ({reason})"


@per_graph
def analyze_parallel(model: ProjectModel, graph: CallGraph) -> ParallelAnalysis:
    """The (memoized) parallel analysis for one model/graph pair."""
    analysis = ParallelAnalysis()
    for summary in model.summaries():
        for qualname in sorted(summary.functions):
            fact = summary.functions[qualname]
            for record in fact.submissions:
                analysis.submissions.append(
                    SubmissionSite(summary=summary, fact=fact, record=record)
                )

    def add_root(node: Node, reason: str) -> None:
        analysis.roots.setdefault(node, reason)

    for site in analysis.submissions:
        record = site.record
        where = f"{site.summary.path}:{record['line']}"
        pool = record.get("pool") or "pool"
        if site.kind in ("named", "bound-method", "variable"):
            resolved = _resolve_node(model, record.get("origin"))
            if resolved is not None:
                add_root(
                    resolved,
                    f"submitted to `{pool}.{record['how']}` at {where}",
                )
        elif site.kind in ("lambda", "local-function"):
            add_root(
                (site.summary.module, site.fact.qualname),
                f"encloses a {site.kind} submitted to "
                f"`{pool}.{record['how']}` at {where}",
            )
    for dotted in KNOWN_WORKER_ENTRY_POINTS:
        resolved = _resolve_node(model, dotted)
        if resolved is not None:
            add_root(resolved, f"known worker entry point `{dotted}`")

    analysis.reachable = graph.reachable_from(analysis.roots)
    return analysis


def _resolve_node(model: ProjectModel, origin: Optional[str]) -> Optional[Node]:
    target = model.function_fact(origin)
    if target is None:
        return None
    summary, fact = target
    return summary.module, fact.qualname
