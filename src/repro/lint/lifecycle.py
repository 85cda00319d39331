"""Container-lifecycle aggregation + the scale scope under SIM5xx.

The SIM5xx scale-soundness family asks questions no single function can
answer: *can this attribute ever shrink?* is a property of the whole
class, and *does growth happen under load?* is a property of the call
graph.  This module folds the per-function ``container_ops`` facts
(:mod:`repro.lint.dataflow`) and the per-class ``containers`` map
(:mod:`repro.lint.projectmodel`) into two shared artifacts:

- :class:`ClassLifecycle` / :class:`AttrLifecycle` -- for every
  long-lived container attribute, the grow/shrink/member/rebuild sites
  across *all* methods of the owning class;
- the **scale scope** -- the closure of functions that run per-packet
  or per-tick at scale.  Its roots are the hot-path modules (reusing
  :data:`repro.lint.hotpath.HOT_PATH_PATTERNS`) plus every function
  that schedules engine callbacks (a self-re-arming heartbeat runs
  forever even though no hot module calls it).  Edges are the
  approximate call graph's, extended with *synthesised dispatch
  edges*: when ``__init__`` stores ``self.X = SomeClass(...)`` and a
  method calls ``self.X.m(...)``, the resolver cannot see through the
  attribute, but the container fact's constructor origin can --
  ``(module_of(SomeClass), "SomeClass.m")`` joins the closure.

Unlike the SIM3xx hot-path pass there is **no sanctioned exemption**:
``obs/`` may be allowed to spend time, but memory it never returns is
still a leak at 1024 endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, Node, closure, per_graph
from repro.lint.dataflow import FunctionFact
from repro.lint.hotpath import HOT_PATH_PATTERNS
from repro.lint.projectmodel import ModuleSummary, ProjectModel

__all__ = [
    "AttrLifecycle",
    "ClassLifecycle",
    "ScaleAnalysis",
    "analyze_scale",
]

#: A container op site: (method qualname, raw op record).
OpSite = Tuple[str, Dict[str, Any]]


@dataclass
class AttrLifecycle:
    """Every touch of one long-lived container attribute, class-wide."""

    attr: str
    #: The ``containers`` fact from ``__init__``: kind / origin /
    #: value_span / bounded / line.
    info: Dict[str, Any]
    grows: List[OpSite] = field(default_factory=list)
    shrinks: List[OpSite] = field(default_factory=list)
    members: List[OpSite] = field(default_factory=list)
    rebuilds: List[OpSite] = field(default_factory=list)
    rebinds: List[OpSite] = field(default_factory=list)
    iterates: List[OpSite] = field(default_factory=list)
    reads: List[OpSite] = field(default_factory=list)
    escapes: List[OpSite] = field(default_factory=list)
    others: List[OpSite] = field(default_factory=list)

    _BUCKETS = {
        "grow": "grows",
        "shrink": "shrinks",
        "member": "members",
        "rebuild": "rebuilds",
        "rebind": "rebinds",
        "iterate": "iterates",
        "read": "reads",
        "escape": "escapes",
        "other": "others",
    }

    def record(self, qualname: str, op: Dict[str, Any]) -> None:
        bucket = self._BUCKETS.get(op.get("op", ""), "others")
        getattr(self, bucket).append((qualname, op))

    @property
    def bounded(self) -> bool:
        return bool(self.info.get("bounded"))

    @property
    def kind(self) -> Optional[str]:
        return self.info.get("kind")


@dataclass
class ClassLifecycle:
    """One class's container attributes plus its method facts."""

    module: str
    name: str
    summary: ModuleSummary
    attrs: Dict[str, AttrLifecycle] = field(default_factory=dict)
    methods: Dict[str, FunctionFact] = field(default_factory=dict)

    @property
    def node_prefix(self) -> str:
        return f"{self.name}."


@dataclass
class ScaleAnalysis:
    """The shared SIM5xx artifact: lifecycles + the scale closure."""

    #: (module, class_name) -> lifecycle, deterministic iteration via
    #: :meth:`classes`.
    lifecycles: Dict[Tuple[str, str], ClassLifecycle]
    #: Scale-scope roots (hot modules + schedulers).
    roots: Set[Node]
    #: Reachable node -> witness root.
    reachable: Dict[Node, Node]
    #: Synthesised ``self.X.m()`` dispatch edges (for provenance).
    dispatch_edges: Dict[Node, Set[Node]]

    def classes(self) -> Iterator[ClassLifecycle]:
        for key in sorted(self.lifecycles):
            yield self.lifecycles[key]

    def is_scale_hot(self, module: str, qualname: str) -> bool:
        return (module, qualname) in self.reachable


def _collect_lifecycles(
    model: ProjectModel,
) -> Dict[Tuple[str, str], ClassLifecycle]:
    lifecycles: Dict[Tuple[str, str], ClassLifecycle] = {}
    for summary in model.summaries():
        for class_name, info in sorted(summary.classes.items()):
            containers = info.get("containers") or {}
            if not containers:
                continue
            lifecycle = ClassLifecycle(
                module=summary.module, name=class_name, summary=summary
            )
            for attr, attr_info in sorted(containers.items()):
                lifecycle.attrs[attr] = AttrLifecycle(attr=attr, info=attr_info)
            prefix = lifecycle.node_prefix
            for qualname, fact in summary.functions.items():
                if not qualname.startswith(prefix):
                    continue
                lifecycle.methods[qualname] = fact
                for op in fact.container_ops:
                    attr_cycle = lifecycle.attrs.get(op.get("attr", ""))
                    if attr_cycle is None:
                        continue
                    # __init__ populates; it runs once per object, so
                    # its grows/rebinds are construction, not lifetime.
                    if qualname.endswith(".__init__"):
                        continue
                    attr_cycle.record(qualname, op)
            lifecycles[(summary.module, class_name)] = lifecycle
    return lifecycles


def _dispatch_edges(
    model: ProjectModel,
    lifecycles: Dict[Tuple[str, str], ClassLifecycle],
) -> Dict[Node, Set[Node]]:
    """Synthesise ``self.X.m()`` edges through constructor origins."""
    edges: Dict[Node, Set[Node]] = {}
    for lifecycle in (lifecycles[key] for key in sorted(lifecycles)):
        targets: Dict[str, Tuple[ModuleSummary, str]] = {}
        for attr, attr_cycle in lifecycle.attrs.items():
            origin = attr_cycle.info.get("origin")
            if not origin:
                continue
            resolved = model.resolve_symbol(origin)
            if resolved is None:
                continue
            target_summary, symbol = resolved
            if symbol and target_summary.symbols.get(symbol) == "class":
                targets[attr] = (target_summary, symbol)
        if not targets:
            continue
        for qualname, fact in lifecycle.methods.items():
            caller: Node = (lifecycle.module, qualname)
            for call in fact.calls:
                if call.resolved is not None:
                    continue
                parts = call.raw.split(".")
                if len(parts) != 3 or parts[0] != "self":
                    continue
                target = targets.get(parts[1])
                if target is None:
                    continue
                target_summary, symbol = target
                callee_qualname = f"{symbol}.{parts[2]}"
                if callee_qualname not in target_summary.functions:
                    continue
                callee: Node = (target_summary.module, callee_qualname)
                edges.setdefault(caller, set()).add(callee)
    return edges


def _scale_roots(model: ProjectModel, graph: CallGraph) -> Set[Node]:
    roots = graph.nodes_in_modules(HOT_PATH_PATTERNS)
    for summary in model.summaries():
        for qualname, fact in summary.functions.items():
            if fact.schedule_calls:
                roots.add((summary.module, qualname))
    return roots


@per_graph
def analyze_scale(model: ProjectModel, graph: CallGraph) -> ScaleAnalysis:
    """Compute (once per call graph) the shared SIM5xx analysis."""
    lifecycles = _collect_lifecycles(model)
    dispatch = _dispatch_edges(model, lifecycles)
    roots = _scale_roots(model, graph)
    return ScaleAnalysis(
        lifecycles=lifecycles,
        roots=roots,
        reachable=closure(
            roots,
            lambda node: graph.edges.get(node, set()) | dispatch.get(node, set()),
        ),
        dispatch_edges=dispatch,
    )
