"""Approximate call graph over the project model.

Nodes are ``(module_name, function_qualname)`` pairs; an edge exists
when a call site's dotted callee resolves -- through the caller's import
bindings, its own top-level symbols, or ``self.`` method dispatch -- to
a function (or class constructor) defined somewhere in the model.

The graph is deliberately *approximate*: calls through instance
attributes (``self.engine.after``) cannot be resolved statically, so the
rules that need them (SIM102's "does this iteration order reach the
event engine?") combine graph reachability with a small set of
well-known sink method names.  False negatives are possible; false
edges are not, which keeps the rules' findings explainable.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple, TypeVar
from weakref import WeakKeyDictionary

from repro.lint.dataflow import FunctionFact
from repro.lint.projectmodel import ModuleSummary, ProjectModel

__all__ = ["CallGraph", "Node", "closure", "per_graph"]

#: (module_name, function_qualname)
Node = Tuple[str, str]


def closure(
    roots: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> Dict[Node, Node]:
    """Breadth-first closure from ``roots`` over ``successors``: every
    node reached -> the root it was first discovered from (the witness
    used for provenance).  Roots map to themselves; roots and each
    node's successors are visited in sorted order, so witnesses are
    deterministic."""
    witness: Dict[Node, Node] = {root: root for root in sorted(set(roots))}
    queue: "deque[Node]" = deque(witness)
    while queue:
        node = queue.popleft()
        for successor in sorted(successors(node)):
            if successor not in witness:
                witness[successor] = witness[node]
                queue.append(successor)
    return witness


class CallGraph:
    """Forward and reverse adjacency over resolved call edges."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.edges: Dict[Node, Set[Node]] = {}
        self.reverse: Dict[Node, Set[Node]] = {}
        self._build()

    def _build(self) -> None:
        for summary in self.model.summaries():
            for fact in summary.functions.values():
                caller: Node = (summary.module, fact.qualname)
                self.edges.setdefault(caller, set())
                for call in fact.calls:
                    target = self.model.function_fact(call.resolved)
                    if target is None:
                        continue
                    target_summary, target_fact = target
                    callee: Node = (target_summary.module, target_fact.qualname)
                    self.edges[caller].add(callee)
                    self.reverse.setdefault(callee, set()).add(caller)

    def summary_of(self, node: Node) -> Optional[ModuleSummary]:
        return self.model.modules.get(node[0])

    def reachable_from(self, roots: Iterable[Node]) -> Dict[Node, Node]:
        """Forward :func:`closure`: node -> the root it is reached from."""
        return closure(roots, lambda node: self.edges.get(node, ()))

    def nodes_reaching(self, base: Iterable[Node]) -> Dict[Node, Node]:
        """Reverse :func:`closure`: every node from which some ``base``
        node is reachable -> the base node it reaches."""
        return closure(base, lambda node: self.reverse.get(node, ()))

    def facts(
        self,
        reachable: Dict[Node, Node],
        skip: Callable[[str], bool] = lambda path: False,
    ) -> Iterator[Tuple[Node, ModuleSummary, FunctionFact, str]]:
        """``(node, summary, fact, witness_path)`` for every function of
        a closure, in node order; modules whose path ``skip`` accepts
        are left out."""
        for node in sorted(reachable):
            summary = self.summary_of(node)
            if summary is None or skip(summary.path):
                continue
            fact = summary.functions.get(node[1])
            if fact is None:
                continue
            witness_summary = self.summary_of(reachable[node])
            witness_path = witness_summary.path if witness_summary else summary.path
            yield node, summary, fact, witness_path

    def nodes_in_modules(self, path_patterns: Iterable[str]) -> Set[Node]:
        """All functions defined in modules whose posix path contains
        one of ``path_patterns`` (the SIM006-style scoping idiom)."""
        patterns = tuple(path_patterns)
        selected: Set[Node] = set()
        for summary in self.model.summaries():
            if any(pattern in summary.path for pattern in patterns):
                for qualname in summary.functions:
                    selected.add((summary.module, qualname))
        return selected

    def nodes_calling_attrs(self, attr_names: FrozenSet[str]) -> Set[Node]:
        """Functions making an *unresolved* attribute call whose method
        name is in ``attr_names`` -- the heuristic that catches
        ``self.engine.after(...)`` style sink contact the resolver
        cannot see."""
        selected: Set[Node] = set()
        for summary in self.model.summaries():
            for fact in summary.functions.values():
                for call in fact.calls:
                    if call.resolved is None and call.attr in attr_names:
                        selected.add((summary.module, fact.qualname))
                        break
        return selected


_Analysis = TypeVar("_Analysis")


def per_graph(
    analyze: Callable[[ProjectModel, CallGraph], _Analysis],
) -> Callable[[ProjectModel, CallGraph], _Analysis]:
    """Memoize a whole-program analysis per call graph, so the rules of
    a family share one pass (each lint run builds a new graph)."""
    cache: "WeakKeyDictionary[CallGraph, _Analysis]" = WeakKeyDictionary()

    @functools.wraps(analyze)
    def memoized(model: ProjectModel, graph: CallGraph) -> _Analysis:
        if graph not in cache:
            cache[graph] = analyze(model, graph)
        return cache[graph]

    return memoized
