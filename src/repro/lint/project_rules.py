"""The interprocedural SIM1xx-SIM5xx rules, run over the project model.

Unlike the per-file SIM0xx rules (:mod:`repro.lint.rules`), these see
every module of the scanned tree at once -- the import graph, the
approximate call graph, and the per-function dataflow facts -- so each
finding can say *which files contributed* (``Violation.provenance``).

========  ===========================  ====================================
ID        pragma name                  what it forbids
========  ===========================  ====================================
SIM101    unit-dimension               mixing time/data dimensions (a µs
                                       value into an ``*_ns`` parameter,
                                       ``bytes + ns`` arithmetic)
SIM102    nondeterministic-iteration   iterating an unordered set where
                                       the order can reach the engine, a
                                       queue, or a stats emitter
SIM103    dead-export                  ``__all__`` entries imported
                                       nowhere in the project
SIM104    hot-path-purity              I/O or eager log-string building
                                       in functions reachable from the
                                       engine/switch/queue hot path
SIM201    unpicklable-worker           lambdas / nested functions / bound
                                       methods submitted to a process
                                       pool
SIM202    shared-mutable-global        module-level dict/list/registry
                                       mutated from worker-reachable
                                       code
SIM203    process-varying-value        ``hash()``/pid/wall-clock values
                                       flowing into digest/cache/summary
                                       dataflow
SIM204    non-atomic-shared-write      worker-reachable file writes
                                       without write-temp-then-replace
SIM205    worker-env-mutation          ``os.environ`` writes reachable
                                       from workers
SIM301    hot-loop-allocation          per-iteration object construction
                                       (literals, comprehensions,
                                       closures, class instantiation) in
                                       loops of engine-reachable code
SIM302    hot-missing-slots            classes instantiated from hot
                                       code without ``__slots__``
SIM303    hot-attr-reload              attribute chain read 2+ times per
                                       hot-loop iteration, no write
SIM304    hot-global-lookup            global/builtin name looked up 2+
                                       times per hot-loop iteration
SIM305    hot-exception-flow           try/except KeyError etc. as
                                       control flow inside hot loops
SIM306    hot-eager-str                f-string/%%/.format/repr on the
                                       hot path outside obs and raises
SIM307    hot-unpooled-event           fresh container displays handed
                                       to ``at``/``after`` inside hot
                                       loops (one allocation per event)
SIM401    schedule-in-past             ``engine.at(t)`` where ``t`` is
                                       derived by subtraction with no
                                       ``max(now, ...)`` clamp
SIM402    float-time-flow              float-derived values reaching ns
                                       time/deadline sinks (``at``,
                                       ``after``, ``*_ns`` targets)
SIM403    epsilon-free-float-compare   ``==``/``!=``/raw ordering on
                                       float-derived time or bandwidth
                                       quantities
SIM404    unstable-edf-tiebreak        deadline-keyed sorts/heaps with
                                       no deterministic tie-break in
                                       engine/queue/switch-reachable code
SIM405    late-binding-callback        loop-variable capture in closures
                                       handed to ``at``/``after``
SIM406    truncating-time-div          true division ``/`` on exact-ns
                                       integers flowing to time sinks
========  ===========================  ====================================

The SIM2xx rules run over the worker-reachability closure computed by
:mod:`repro.lint.parallel`; the SIM3xx performance family runs over the
engine-reachability closure from :mod:`repro.lint.hotpath` and is the
family the profile-guided mode (``--profile prof.pstats``) ranks by
measured cost.  The SIM4xx temporal family runs over the time-type
lattice from :mod:`repro.lint.temporal` -- global for SIM401-403/405/406
(a float deadline is a bug wherever it runs), hot-scoped for SIM404 (the
tie-break discipline is an engine/queue contract).  Some findings carry
a machine-applicable ``fix`` payload that ``repro-qos lint --fix``
consumes (:mod:`repro.lint.fixes`).

A finding is suppressed on its line with ``# simlint: allow-<name>`` or
``# simlint: allow-sim1xx`` (the lowercase rule id works as a pragma
alias for every rule).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.lint.callgraph import CallGraph, Node
from repro.lint.dataflow import FunctionFact, classify_name, dims_compatible
from repro.lint.hotpath import (
    HOT_PATH_PATTERNS,
    SANCTIONED_PATH_PATTERNS,
    analyze_hotpath,
    is_sanctioned,
    iter_hot_facts,
)
from repro.lint.lifecycle import (
    AttrLifecycle,
    ClassLifecycle,
    ScaleAnalysis,
    analyze_scale,
)
from repro.lint.parallel import SubmissionSite, analyze_parallel
from repro.lint.projectmodel import ModuleSummary, ProjectModel
from repro.lint.rules import PROJECT_RULES, BaseRule, register
from repro.lint.temporal import FLOAT, SUBTRACTION, iter_temporal_facts
from repro.lint.violations import Violation

__all__ = ["PROJECT_RULES", "ProjectRule", "register_project_rule"]


class ProjectRule(BaseRule):
    """Base class for whole-program rules."""

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        """Yield one :class:`Violation` per finding (pragma filtering is
        the runner's job)."""
        raise NotImplementedError

    def _violation(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        provenance: Tuple[str, ...],
        fix: Optional[Dict[str, Any]] = None,
    ) -> Violation:
        return Violation(
            path=path,
            line=line,
            col=col,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
            provenance=tuple(sorted(set(provenance))),
            fix=fix,
        )


def register_project_rule(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator: instantiate and register a project rule."""
    return register(PROJECT_RULES, cls)


#: ``[line, col, end_line, end_col]`` of a dataflow record.
_record_span = operator.itemgetter("line", "col", "end_line", "end_col")


def _fix(
    kind: str,
    path: str,
    description: str,
    edits: Iterable[Tuple[Sequence[Any], str]],
    **extra: str,
) -> Dict[str, Any]:
    """A machine-fix payload (what :mod:`repro.lint.fixes` applies);
    ``edits`` are ``([line, col, end_line, end_col], replacement)``."""
    keys = ("start_line", "start_col", "end_line", "end_col")
    return {
        "kind": kind,
        "path": path,
        "description": description,
        "edits": [
            {**dict(zip(keys, map(int, span))), "replacement": replacement}
            for span, replacement in edits
        ],
        **extra,
    }


# ----------------------------------------------------------------------
# SIM101: unit-dimension dataflow
# ----------------------------------------------------------------------
@register_project_rule
class UnitDimensionRule(ProjectRule):
    id = "SIM101"
    name = "unit-dimension"
    description = (
        "time/data dimensions must not mix: *_ns parameters take integer "
        "nanoseconds (built via repro.sim.units us/ms/s or `n * US`), "
        "*_bytes take bytes, and bytes never add to nanoseconds"
    )
    rationale = (
        "The library keeps simulated time in integer nanoseconds and data "
        "in bytes (sim/units.py); a microsecond-scaled value slipping into "
        "an *_ns parameter silently stretches every deadline 1000x and no "
        "test that only checks relative ordering will notice.  The checker "
        "follows the *_ns/*_us/*_bytes naming conventions through "
        "assignments and across module boundaries via the call graph."
    )
    example_bad = (
        "# helper.py\n"
        "def schedule(delay_ns):\n"
        "    ...\n"
        "# caller.py\n"
        "from helper import schedule\n"
        "timeout_us = 20\n"
        "schedule(timeout_us)          # us handed to an *_ns parameter\n"
        "total = size_bytes + now_ns   # bytes + ns arithmetic\n"
    )
    example_good = (
        "from repro.sim.units import US, us\n"
        "from helper import schedule\n"
        "schedule(us(20))              # sanctioned constructor -> ns\n"
        "schedule(20 * US)             # sanctioned conversion -> ns\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary in model.summaries():
            for fact in summary.functions.values():
                for line, col, detail in fact.mixes:
                    yield self._violation(
                        summary.path,
                        line,
                        col,
                        f"unit-dimension mismatch: {detail}",
                        (summary.path,),
                    )
                for call in fact.calls:
                    target = model.function_fact(call.resolved)
                    if target is None:
                        continue
                    target_summary, target_fact = target
                    params = list(target_fact.params)
                    if target_fact.is_method and params:
                        params = params[1:]
                    pairs = list(zip(params, call.arg_dims))
                    pairs += [
                        (name, dim)
                        for name, dim in call.kw_dims.items()
                        if name in params
                    ]
                    for param, arg_dim in pairs:
                        param_dim = classify_name(param)
                        if dims_compatible(param_dim, arg_dim):
                            continue
                        callee = f"{target_summary.module}.{target_fact.qualname}"
                        yield self._violation(
                            summary.path,
                            call.line,
                            call.col,
                            f"`{arg_dim}`-dimensioned argument passed to "
                            f"parameter `{param}` (`{param_dim}`) of "
                            f"`{callee}`",
                            (summary.path, target_summary.path),
                        )


# ----------------------------------------------------------------------
# SIM102: nondeterministic iteration reaching the engine/queues/stats
# ----------------------------------------------------------------------
@register_project_rule
class NondeterministicIterationRule(ProjectRule):
    id = "SIM102"
    name = "nondeterministic-iteration"
    description = (
        "iterating an unordered set in code that can reach the event "
        "engine, a queue, or a stats emitter makes event order depend on "
        "hash seeds; iterate sorted(...) instead"
    )
    rationale = (
        "Python set iteration order depends on insertion history and hash "
        "randomization.  If that order decides which event is scheduled "
        "first, two runs with the same seed can diverge -- the exact "
        "failure class deterministic DES frameworks exist to prevent.  "
        "The rule combines the call graph (does this function reach "
        "sim/engine, core/queues or stats?) with known scheduling method "
        "names (.at/.after/.schedule/.record/.observe)."
    )
    example_bad = (
        "def flush(self, hosts):\n"
        "    for host in set(hosts):          # unordered\n"
        "        self.engine.after(1, host.poll)\n"
    )
    example_good = (
        "def flush(self, hosts):\n"
        "    for host in sorted(set(hosts), key=lambda h: h.name):\n"
        "        self.engine.after(1, host.poll)\n"
    )

    #: Modules whose functions are event-order / stats sinks.
    SINK_PATH_PATTERNS = ("sim/engine", "core/queues/", "stats/")
    #: Unresolvable attribute calls that read as sink contact.
    SINK_ATTRS = frozenset({"at", "after", "schedule", "record", "observe", "emit"})

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        base = graph.nodes_in_modules(self.SINK_PATH_PATTERNS)
        base |= graph.nodes_calling_attrs(self.SINK_ATTRS)
        reaching = graph.nodes_reaching(base)
        for node, summary, fact, witness_path in graph.facts(reaching):
            witness = reaching[node]
            for line, col, detail in fact.set_iters:
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"{detail} in `{node[1]}`, whose results can reach "
                    f"the engine/queues/stats via `{witness[0]}.{witness[1]}`; "
                    "iterate a sorted(...) copy",
                    (summary.path, witness_path),
                )


# ----------------------------------------------------------------------
# SIM103: dead public exports
# ----------------------------------------------------------------------
@register_project_rule
class DeadExportRule(ProjectRule):
    id = "SIM103"
    name = "dead-export"
    description = (
        "__all__ entries that no other module imports or references are "
        "dead API surface; remove them or mark the deliberate ones"
    )
    rationale = (
        "Every name in __all__ is a promise to keep.  A symbol exported "
        "but imported nowhere in the project is either dead code or an "
        "undocumented extension point -- both silently rot.  Package "
        "__init__/__main__/cli modules are exempt (they *are* the public "
        "surface); everything else must have an in-tree consumer, a "
        "re-export, or an explicit pragma."
    )
    example_bad = (
        "# util.py\n"
        "__all__ = ['used', 'never_imported']\n"
        "def used(): ...\n"
        "def never_imported(): ...\n"
        "# main.py\n"
        "from util import used\n"
    )
    example_good = (
        "# util.py\n"
        "__all__ = ['used']\n"
        "def used(): ...\n"
        "def never_imported(): ...   # private: not exported\n"
    )

    #: Module stems that define the public surface itself.
    EXEMPT_STEMS = frozenset({"__init__", "__main__", "cli", "conftest"})

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        used = set()
        star_imported = set()
        for summary in model.summaries():
            used.update(summary.bindings.values())
            used.update(summary.uses)
            star_imported.update(summary.star_imports)
        for summary in model.summaries():
            stem = summary.path.rsplit("/", 1)[-1].removesuffix(".py")
            if stem in self.EXEMPT_STEMS:
                continue
            if summary.module in star_imported:
                continue
            for name, line, col in summary.exports:
                if f"{summary.module}.{name}" in used:
                    continue
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"`{name}` is exported from `{summary.module}` but "
                    "imported nowhere in the project",
                    (summary.path,),
                )


# ----------------------------------------------------------------------
# SIM104: hot-path purity
# ----------------------------------------------------------------------
@register_project_rule
class HotPathPurityRule(ProjectRule):
    id = "SIM104"
    name = "hot-path-purity"
    description = (
        "functions reachable from the engine -> switch -> queue hot path "
        "must not perform I/O or build log strings unconditionally"
    )
    rationale = (
        "The event loop executes millions of times per simulated "
        "millisecond; one print(), open() or eagerly-formatted logger "
        "call on that path dominates the profile and (worse) interleaves "
        "host I/O with simulated time.  Error paths are exempt: building "
        "a message inside `raise` costs nothing until the invariant "
        "breaks.  The observability layer (any module under an obs/ "
        "directory, i.e. repro.obs) is sanctioned by design: its "
        "counters/histograms are the one blessed way to look at the hot "
        "path, its own I/O (live progress, span-trace JSONL/Chrome-trace "
        "export in obs/tracing.py) runs heartbeat-gated or after the "
        "simulation, and its overhead is budgeted by a dedicated "
        "benchmark instead of this "
        "rule.  Campaign execution (any module under an exec/ directory, "
        "i.e. repro.exec) is likewise sanctioned: spawning worker "
        "processes and writing cache entries *is* its job, and it runs "
        "between simulations, never inside one."
    )
    example_bad = (
        "# core/queues/noisy.py\n"
        "class Queue:\n"
        "    def push(self, pkt):\n"
        "        print(f'push {pkt}')    # I/O on the hot path\n"
    )
    example_good = (
        "# core/queues/quiet.py\n"
        "class Queue:\n"
        "    def push(self, pkt):\n"
        "        if pkt.size_bytes < 0:\n"
        "            raise ValueError(f'bad size {pkt}')  # error path: fine\n"
    )

    #: Kept as aliases so existing callers (tests, docs) keep working;
    #: the closure itself now comes from the shared hot-path pass.
    HOT_PATH_PATTERNS = HOT_PATH_PATTERNS
    SANCTIONED_PATH_PATTERNS = SANCTIONED_PATH_PATTERNS

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis = analyze_hotpath(model, graph)
        for node, summary, fact, root_path in iter_hot_facts(model, graph):
            root = analysis.reachable[node]
            for line, col, detail in fact.io_calls:
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"hot-path impurity in `{node[1]}`: {detail} "
                    f"(reachable from `{root[0]}.{root[1]}`)",
                    (summary.path, root_path),
                )


# ----------------------------------------------------------------------
# SIM2xx: parallel safety (worker-reachability based)
# ----------------------------------------------------------------------
@register_project_rule
class UnpicklableWorkerRule(ProjectRule):
    id = "SIM201"
    name = "unpicklable-worker"
    description = (
        "lambdas, nested functions, and bound methods submitted to a "
        "process pool either fail to pickle or drag their whole "
        "enclosing instance into every worker; submit a module-level "
        "function instead"
    )
    rationale = (
        "ProcessPoolExecutor pickles the submitted callable into each "
        "worker.  A lambda or a function defined inside another "
        "function raises PicklingError outright; a bound method "
        "serialises its entire instance -- including any open files, "
        "pools, or caches it holds -- into every child, which at best "
        "is slow and at worst forks live state the parent goes on "
        "mutating.  The sweep executor's byte-identical-merge guarantee "
        "assumes workers receive nothing but a picklable function and "
        "its config.  The --fix engine can lift an argument-closed "
        "lambda to a module-level function automatically."
    )
    example_bad = (
        "with ProcessPoolExecutor() as pool:\n"
        "    fut = pool.submit(lambda cfg: run(cfg).total, config)\n"
    )
    example_good = (
        "def _run_total(cfg):\n"
        "    return run(cfg).total\n"
        "\n"
        "with ProcessPoolExecutor() as pool:\n"
        "    fut = pool.submit(_run_total, config)\n"
    )

    _WHY = {
        "lambda": "lambdas cannot be pickled",
        "local-function": "functions defined inside another function "
        "cannot be pickled",
        "bound-method": "bound methods pickle their whole instance into "
        "every worker (or fail outright)",
    }

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis = analyze_parallel(model, graph)
        for site in analysis.submissions:
            if site.kind not in self._WHY:
                continue
            record = site.record
            pool = record.get("pool") or "pool"
            callee = record.get("callee") or "<lambda>"
            if site.kind == "lambda":
                what = "a lambda"
            elif site.kind == "local-function":
                what = f"locally-defined function `{callee}`"
            else:
                what = f"bound method `{callee}`"
            fix = self._lift_fix(site) if site.kind == "lambda" else None
            yield self._violation(
                site.summary.path,
                site.line,
                site.col,
                f"{what} submitted to `{pool}.{record['how']}`: "
                f"{self._WHY[site.kind]}; submit a module-level function",
                (site.summary.path,),
                fix=fix,
            )

    @staticmethod
    def _lift_fix(site: SubmissionSite) -> Optional[Dict[str, Any]]:
        """Machine edit lifting an argument-closed, single-expression
        lambda to a module-level function; ``None`` when the lambda
        captures state (a lift would change semantics)."""
        payload = site.record.get("lambda") or {}
        body_src = payload.get("body_src")
        if (
            not body_src
            or "\n" in body_src
            or payload.get("free_vars")
            or payload.get("has_varargs")
            or payload.get("has_defaults")
        ):
            return None
        name = f"_lifted_worker_{payload['line']}"
        if name in site.summary.symbols:
            return None  # already lifted (or colliding): leave it alone
        params = ", ".join(payload["params"])
        return _fix(
            "lift-lambda",
            site.summary.path,
            f"lift the lambda to module-level `{name}`",
            [(_record_span(payload), name)],
            append=f"\n\ndef {name}({params}):\n    return {body_src}\n",
        )


@register_project_rule
class SharedMutableGlobalRule(ProjectRule):
    id = "SIM202"
    name = "shared-mutable-global"
    description = (
        "module-level dicts/lists/registries mutated from "
        "worker-reachable code diverge per process: each fork mutates "
        "its own copy and the parent never sees any of them"
    )
    rationale = (
        "After fork (or spawn), every worker owns a private copy of "
        "module globals.  Code that appends to a module-level list, "
        "caches into a module-level dict, or get-or-creates metrics in "
        "a module-level MetricsRegistry *appears* to work in every "
        "worker -- and all of it is silently discarded when the worker "
        "exits, while jobs=1 runs accumulate real state.  That is the "
        "exact serial-vs-parallel divergence the executor's "
        "byte-identical-merge test exists to prevent.  Pass state in "
        "through the config and return it in the summary instead."
    )
    example_bad = (
        "_SEEN = {}\n"
        "def execute(cfg):           # submitted to the pool\n"
        "    _SEEN[cfg.seed] = True  # lost when the worker exits\n"
    )
    example_good = (
        "def execute(cfg):\n"
        "    seen = {cfg.seed: True}\n"
        "    return Summary(cfg, seen=seen)   # state rides the return\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis = analyze_parallel(model, graph)
        for node, summary, fact, witness_path in graph.facts(analysis.reachable):
            for line, col, origin, kind, detail in fact.global_mutations:
                resolved = model.resolve_symbol(origin)
                if resolved is None:
                    continue
                owner_summary, symbol = resolved
                head = symbol.split(".", 1)[0] if symbol else ""
                if not head:
                    continue
                info = owner_summary.mutable_globals.get(head)
                if info is None and kind != "rebind":
                    continue
                global_kind = info[2] if info is not None else "module global"
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"worker-reachable `{node[1]}` mutates module global "
                    f"`{head}` ({global_kind} defined in "
                    f"`{owner_summary.module}`) via {detail}; each pool "
                    "worker mutates a private fork-copy the parent never "
                    f"sees ({analysis.reason_for(node)})",
                    (summary.path, owner_summary.path, witness_path),
                )


@register_project_rule
class ProcessVaryingValueRule(ProjectRule):
    id = "SIM203"
    name = "process-varying-value"
    description = (
        "hash(), id(), os.getpid() and wall-clock reads differ between "
        "worker processes (and runs); feeding them into digest/cache/"
        "summary dataflow breaks content addressing"
    )
    rationale = (
        "The result cache maps config digests to summaries; the whole "
        "scheme assumes identical configs produce identical digests in "
        "every process, forever.  hash() is salted per process by "
        "PYTHONHASHSEED, id() is an address, os.getpid() and the wall "
        "clock obviously vary -- any of them reaching digest, cache-key, "
        "or summary construction makes cache hits a lottery: the same "
        "sweep re-simulates points it already has, or worse, two "
        "workers disagree about which entry is theirs.  Use the "
        "sha256-based helpers in repro.exec.digest (config_digest, "
        "stable_hash); the --fix engine rewrites single-argument "
        "hash(x) calls to stable_hash(x) automatically."
    )
    example_bad = (
        "# digest.py\n"
        "def cache_key(payload):\n"
        "    return hash(payload)      # salted per process\n"
    )
    example_good = (
        "# digest.py\n"
        "from repro.exec.digest import stable_hash\n"
        "def cache_key(payload):\n"
        "    return stable_hash(payload)   # sha256: stable everywhere\n"
    )

    #: File names whose dataflow is digest/cache/summary territory.
    SINK_FILES = frozenset({"digest.py", "cache.py", "summary.py"})

    def _is_sink(self, path: str) -> bool:
        return path.rsplit("/", 1)[-1] in self.SINK_FILES

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary in model.summaries():
            in_sink = self._is_sink(summary.path)
            for qualname in sorted(summary.functions):
                fact = summary.functions[qualname]
                if in_sink:
                    for record in fact.varying_calls:
                        yield self._violation(
                            summary.path,
                            record["line"],
                            record["col"],
                            f"{record['detail']} used in `{qualname}` of "
                            "digest/cache/summary code: the value differs "
                            "between worker processes, so identical "
                            "configs stop mapping to identical digests",
                            (summary.path,),
                            fix=self._stable_hash_fix(summary.path, record),
                        )
                else:
                    for record in fact.varying_args:
                        target = model.function_fact(record.get("origin"))
                        if target is None:
                            continue
                        target_summary, target_fact = target
                        if not self._is_sink(target_summary.path):
                            continue
                        hits = "; ".join(record["hits"])
                        yield self._violation(
                            summary.path,
                            record["line"],
                            record["col"],
                            f"process-varying value ({hits}) flows into "
                            f"`{target_summary.module}."
                            f"{target_fact.qualname}`: digests/cache keys "
                            "derived from it differ per worker process",
                            (summary.path, target_summary.path),
                        )

    @staticmethod
    def _stable_hash_fix(
        path: str, record: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if record.get("func") != "hash" or record.get("nargs") != 1:
            return None
        arg_src = record.get("arg_src")
        if not arg_src:
            return None
        return _fix(
            "stable-hash",
            path,
            "replace hash() with the deterministic sha256-based stable_hash()",
            [(_record_span(record), f"stable_hash({arg_src})")],
            ensure_import="from repro.exec.digest import stable_hash",
        )


@register_project_rule
class NonAtomicSharedWriteRule(ProjectRule):
    id = "SIM204"
    name = "non-atomic-shared-write"
    description = (
        "worker-reachable code writing files in place can interleave "
        "with other workers; write to a temp path and os.replace() it, "
        "as the result cache does"
    )
    rationale = (
        "Two workers opening the same path with open(..., 'w') "
        "interleave their writes; a reader (or a resumed campaign) sees "
        "a torn file.  POSIX rename is atomic on one filesystem, so the "
        "cache's idiom -- write the full payload to a sibling temp file, "
        "then os.replace()/Path.replace() onto the final name -- makes "
        "every observer see either the old file or the complete new "
        "one.  The rule flags worker-reachable writes in functions with "
        "no replace/rename pairing; the check is per-function, so keep "
        "the write and its rename together."
    )
    example_bad = (
        "def save(summary, path):     # runs inside pool workers\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(summary.to_json())\n"
    )
    example_good = (
        "def save(summary, path):\n"
        "    tmp = path.with_suffix('.tmp')\n"
        "    tmp.write_text(summary.to_json())\n"
        "    tmp.replace(path)        # atomic: no torn reads\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis = analyze_parallel(model, graph)
        for node, summary, fact, witness_path in graph.facts(analysis.reachable):
            if fact.atomic_renames:
                continue  # temp-then-rename idiom present in this function
            for line, col, detail in fact.file_writes:
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"worker-reachable `{node[1]}` writes a file in place "
                    f"({detail}) with no replace/rename pairing; write to "
                    "a temp path and os.replace() it "
                    f"({analysis.reason_for(node)})",
                    (summary.path, witness_path),
                )


@register_project_rule
class WorkerEnvMutationRule(ProjectRule):
    id = "SIM205"
    name = "worker-env-mutation"
    description = (
        "os.environ writes in worker-reachable code mutate one worker's "
        "environment, not the campaign's; pass settings through the "
        "config instead"
    )
    rationale = (
        "os.environ is per-process state.  A worker setting an "
        "environment variable changes nothing for its siblings or the "
        "parent, but *does* change its own subsequent tasks -- so which "
        "tasks see the setting depends on pool scheduling, the exact "
        "nondeterminism the deterministic merge is supposed to "
        "exclude.  Configuration must flow through ExperimentConfig "
        "(which is digested into the cache key); environment mutation "
        "belongs at process start, before the pool exists."
    )
    example_bad = (
        "def execute(cfg):            # submitted to the pool\n"
        "    os.environ['QOS_MODE'] = cfg.mode   # this worker only\n"
    )
    example_good = (
        "def execute(cfg):\n"
        "    run(mode=cfg.mode)       # settings travel in the config\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis = analyze_parallel(model, graph)
        for node, summary, fact, witness_path in graph.facts(analysis.reachable):
            for line, col, detail in fact.env_writes:
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"worker-reachable `{node[1]}` mutates the process "
                    f"environment ({detail}); the write is invisible to "
                    "other workers and the parent "
                    f"({analysis.reason_for(node)})",
                    (summary.path, witness_path),
                )


# ----------------------------------------------------------------------
# SIM3xx: hot-path performance (engine-reachability based)
# ----------------------------------------------------------------------
def _hot_function_facts(
    model: ProjectModel, graph: CallGraph
) -> Iterator[Tuple[Node, ModuleSummary, Any, str]]:
    """:func:`iter_hot_facts` minus module-level pseudo-functions:
    import-time code runs once per process, never per event, so the
    per-iteration cost arguments behind SIM301-SIM306 do not apply."""
    for node, summary, fact, root_path in iter_hot_facts(model, graph):
        if node[1] == "<module>":
            continue
        yield node, summary, fact, root_path


def _looks_like_exception(name: str, bases: Iterable[str]) -> bool:
    """Conventional-name test for exception classes: instantiated on
    raise paths, not per event, so ``__slots__`` buys nothing (and the
    BaseException machinery already manages the instance layout)."""
    suffixes = ("Error", "Exception", "Warning", "Violation", "Interrupt")
    if name.endswith(suffixes):
        return True
    return any(
        base.rsplit(".", 1)[-1].endswith(suffixes)
        or base.rsplit(".", 1)[-1] in ("BaseException", "KeyboardInterrupt")
        for base in bases
    )


def _hoist_fix(
    path: str,
    rec: Dict[str, Any],
    target: str,
    description: str,
) -> Optional[Dict[str, Any]]:
    """The SIM303/SIM304 machine fix: bind ``target`` to a local alias
    just above the loop and rewrite every load site to the alias.

    ``None`` when the collector could not find a collision-free alias;
    the finding still fires, the rewrite is just left to a human.
    """
    if not rec.get("alias_ok"):
        return None
    alias = str(rec["alias"])
    pad = " " * int(rec["loop_col"])
    loop_line = rec["loop_line"]
    insert = ([loop_line, 0, loop_line, 0], f"{pad}{alias} = {target}\n")
    rewrites = [(site, alias) for site in rec["sites"]]
    return _fix("hoist-loop-load", path, description, [insert, *rewrites])


@register_project_rule
class HotLoopAllocationRule(ProjectRule):
    id = "SIM301"
    name = "hot-loop-allocation"
    description = (
        "no fresh objects per iteration in hot loops: list/dict/set "
        "literals, comprehensions, closures, varying-size tuples, and "
        "project-class instantiations inside loops of engine-reachable "
        "functions allocate on every pass"
    )
    rationale = (
        "The forwarding pipeline executes its loops once per packet per "
        "hop; a literal or closure inside such a loop turns every "
        "iteration into an allocator round-trip and a future GC sweep.  "
        "CPython allocation is ~100ns -- at millions of events per run "
        "that is real simulated-seconds-per-wall-hour lost.  Hoist the "
        "object out of the loop, preallocate a buffer, or restructure "
        "so the allocation happens once.  Allocations that *are* the "
        "workload (constructing the packets being injected) get a "
        "justified `# simlint: allow-hot-loop-allocation` pragma.  "
        "Error paths (`raise`, except handlers) are exempt."
    )
    example_bad = (
        "# core/queues/hot.py\n"
        "def drain(self, batch):\n"
        "    out = []\n"
        "    for item in batch:\n"
        "        out.append([item.a, item.b])   # fresh list per packet\n"
    )
    example_good = (
        "# core/queues/hot.py\n"
        "def drain(self, batch):\n"
        "    return list(batch)                 # one allocation, outside\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.loop_allocs:
                detail = str(rec["detail"])
                if rec["what"] == "call":
                    resolved = model.resolve_symbol(str(rec["origin"]))
                    if resolved is None:
                        continue
                    owner, symbol = resolved
                    if "." in symbol or owner.symbols.get(symbol) != "class":
                        continue
                    detail = f"an instance of `{symbol}`"
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"allocation in a hot loop: {detail} is built on "
                    f"every iteration of the loop at line "
                    f"{rec['loop_line']} in `{node[1]}`; hoist it out, "
                    "preallocate, or reuse a buffer",
                    (summary.path, root_path),
                )


@register_project_rule
class HotMissingSlotsRule(ProjectRule):
    id = "SIM302"
    name = "hot-missing-slots"
    description = (
        "classes instantiated from engine-reachable code must declare "
        "__slots__: a per-instance __dict__ costs ~100 extra bytes and "
        "a hash lookup on every attribute access"
    )
    rationale = (
        "Hot code constructs these objects by the million (packets, "
        "event handles, queue entries).  Without __slots__ each "
        "instance drags a dict: more allocator pressure, worse cache "
        "locality, and slower attribute access on every later hot-path "
        "read.  The fix synthesises the tuple from the `self.x = ...` "
        "stores in `__init__`.  Decorated classes (dataclasses etc.) "
        "are skipped -- their machinery owns the layout -- and the "
        "speedup needs the whole inheritance chain slotted, so check "
        "the bases after applying."
    )
    example_bad = (
        "class Tracker:              # instantiated from hot code\n"
        "    def __init__(self, start):\n"
        "        self.count = start\n"
    )
    example_good = (
        "class Tracker:\n"
        "    __slots__ = (\"count\",)\n"
        "    def __init__(self, start):\n"
        "        self.count = start\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        seen: set[Tuple[str, str]] = set()
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for call in fact.calls:
                if call.resolved is None:
                    continue
                resolved = model.resolve_symbol(call.resolved)
                if resolved is None:
                    continue
                owner, symbol = resolved
                if "." in symbol or owner.symbols.get(symbol) != "class":
                    continue
                info = owner.classes.get(symbol)
                if info is None or info["has_slots"] or info["decorated"]:
                    continue
                if _looks_like_exception(symbol, info.get("bases", ())):
                    continue
                if is_sanctioned(owner.path):
                    continue
                key = (owner.path, symbol)
                if key in seen:
                    continue
                seen.add(key)
                fix: Optional[Dict[str, Any]] = None
                attrs = list(info.get("init_attrs", ()))
                if attrs:
                    pad = " " * int(info["indent"])
                    items = ", ".join(f'"{attr}"' for attr in attrs)
                    if len(attrs) == 1:
                        items += ","
                    line = info["insert_line"]
                    fix = _fix(
                        "insert-slots",
                        owner.path,
                        f"declare `__slots__` on `{symbol}` from its "
                        "`__init__` attributes",
                        [([line, 0, line, 0], f"{pad}__slots__ = ({items})\n\n")],
                    )
                yield self._violation(
                    owner.path,
                    int(info["line"]),
                    int(info["col"]),
                    f"`{symbol}` is instantiated from hot-path "
                    f"`{node[1]}` (line {call.line}) but declares no "
                    "`__slots__`; every instance carries a dict",
                    (owner.path, summary.path, root_path),
                    fix=fix,
                )


@register_project_rule
class HotAttrReloadRule(ProjectRule):
    id = "SIM303"
    name = "hot-attr-reload"
    description = (
        "an attribute chain read 2+ times per iteration of a hot loop "
        "(with no intervening write) pays the descriptor lookup every "
        "time; hoist it into a local before the loop"
    )
    rationale = (
        "`self._heap` resolved inside the loop costs a dict/descriptor "
        "lookup per read per iteration; a local costs an array index.  "
        "engine.run() already does this by hand (`heap = self._heap`).  "
        "The analyzer only fires when nothing in the loop (including "
        "nested loops) stores to the chain or a prefix of it, and the "
        "machine fix rewrites every site to a collision-checked local.  "
        "Caveat: hoisting a *property* with side effects or a "
        "time-varying value is a semantic change -- review such sites "
        "or pragma them."
    )
    example_bad = (
        "def total(self, packets):\n"
        "    n = 0\n"
        "    for pkt in packets:\n"
        "        if self.slots is not None:\n"
        "            n += len(self.slots)    # 2nd load, same iteration\n"
    )
    example_good = (
        "def total(self, packets):\n"
        "    n = 0\n"
        "    slots = self.slots              # one load, before the loop\n"
        "    for pkt in packets:\n"
        "        if slots is not None:\n"
        "            n += len(slots)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.loop_attr_repeats:
                chain = str(rec["chain"])
                site = rec["sites"][0]
                fix = _hoist_fix(
                    summary.path,
                    rec,
                    chain,
                    f"hoist `{chain}` to local `{rec['alias']}` above "
                    f"the loop at line {rec['loop_line']}",
                )
                yield self._violation(
                    summary.path,
                    int(site[0]),
                    int(site[1]),
                    f"`{chain}` is read {rec['count']}x per iteration "
                    f"of the hot loop at line {rec['loop_line']} in "
                    f"`{node[1]}` with no intervening write; hoist it "
                    "into a local before the loop",
                    (summary.path, root_path),
                    fix=fix,
                )


@register_project_rule
class HotGlobalLookupRule(ProjectRule):
    id = "SIM304"
    name = "hot-global-lookup"
    description = (
        "a global or builtin name looked up 2+ times per iteration of "
        "a hot loop pays two dict probes (module then builtins) each "
        "time; bind it to a local alias before the loop"
    )
    rationale = (
        "CPython resolves a global/builtin name through the module "
        "namespace and then the builtins dict on *every* evaluation; "
        "locals are array slots.  engine.run() aliases "
        "`pop = heapq.heappop` by hand for exactly this reason.  The "
        "machine fix inserts the alias binding above the loop and "
        "rewrites every lookup site; builtin aliases get a leading "
        "underscore (`_len = len`) so the alias never shadows the name "
        "it captures."
    )
    example_bad = (
        "import heapq\n"
        "def merge(self, items, extra):\n"
        "    for value in extra:\n"
        "        heapq.heappush(items, value)      # 2 dict probes\n"
        "        heapq.heappush(items, value + 1)  # ... per site\n"
    )
    example_good = (
        "import heapq\n"
        "def merge(self, items, extra):\n"
        "    heappush = heapq.heappush             # bound once\n"
        "    for value in extra:\n"
        "        heappush(items, value)\n"
        "        heappush(items, value + 1)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.loop_global_lookups:
                name = str(rec["name"])
                site = rec["sites"][0]
                fix = _hoist_fix(
                    summary.path,
                    rec,
                    name,
                    f"alias {rec['kind']} `{name}` as local "
                    f"`{rec['alias']}` above the loop at line "
                    f"{rec['loop_line']}",
                )
                yield self._violation(
                    summary.path,
                    int(site[0]),
                    int(site[1]),
                    f"{rec['kind']} `{name}` is looked up "
                    f"{rec['count']}x per iteration of the hot loop at "
                    f"line {rec['loop_line']} in `{node[1]}`; bind it "
                    "to a local alias before the loop",
                    (summary.path, root_path),
                    fix=fix,
                )


@register_project_rule
class HotExceptionFlowRule(ProjectRule):
    id = "SIM305"
    name = "hot-exception-flow"
    description = (
        "try/except used for expected cases inside a hot loop: "
        "KeyError/IndexError/AttributeError/StopIteration handlers "
        "that do real work signal control flow by exception, which "
        "costs an exception object + traceback per miss"
    )
    rationale = (
        "Raising is fine when exceptional; in a hot loop where the "
        "'miss' is a routine outcome (absent dict key, drained list), "
        "each miss allocates an exception instance and unwinds a "
        "frame -- an order of magnitude over `dict.get`, a length "
        "check, or iterator protocol.  Handlers that merely re-raise "
        "are exempt (that is error propagation, not control flow), as "
        "are handlers for types outside the cheap-check set."
    )
    example_bad = (
        "for key in keys:\n"
        "    try:\n"
        "        out.append(table[key])   # miss is a routine case\n"
        "    except KeyError:\n"
        "        out.append(None)\n"
    )
    example_good = (
        "for key in keys:\n"
        "    out.append(table.get(key))   # one probe, no unwinding\n"
    )

    #: Exception types with a cheap non-raising equivalent.
    CHEAP_CHECK_TYPES = frozenset(
        {"KeyError", "IndexError", "AttributeError", "StopIteration"}
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.loop_try_excepts:
                if rec.get("reraises_only"):
                    continue
                cheap = sorted(self.CHEAP_CHECK_TYPES & set(rec["types"]))
                if not cheap:
                    continue
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"try/except {'/'.join(cheap)} inside the hot loop "
                    f"at line {rec['loop_line']} in `{node[1]}` treats "
                    "an expected case as an exception; use .get()/a "
                    "length check/iterator protocol instead",
                    (summary.path, root_path),
                )


@register_project_rule
class HotEagerStringRule(ProjectRule):
    id = "SIM306"
    name = "hot-eager-str"
    description = (
        "f-strings, %-formatting, str.format and repr() on the hot "
        "path build strings nobody may ever read; outside the obs "
        "layer the hot path must not format"
    )
    rationale = (
        "String interpolation allocates and formats unconditionally -- "
        "even when the result feeds a disabled trace or a metric that "
        "is never scraped.  The observability layer is sanctioned (its "
        "cost is budgeted and benchmarked); `raise` paths are exempt "
        "(the message costs nothing until the invariant breaks), and "
        "so are `__repr__`/`__str__` (formatting *is* their job -- "
        "callers pay only when they ask).  Everything else on the hot "
        "path should format lazily or not at all; one-time setup code "
        "that trips the rule gets a justified pragma."
    )
    example_bad = (
        "def label(self, pkt):            # hot-reachable\n"
        "    return f\"{self.prefix}:{pkt.uid}\"   # formats per packet\n"
    )
    example_good = (
        "def describe(self, pkt):\n"
        "    if pkt is None:\n"
        "        raise ValueError(f\"no packet for {self.prefix}\")\n"
        "    return (self.prefix, pkt.uid)  # tuple, formatted on demand\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            if node[1].endswith(("__repr__", "__str__")):
                continue
            for line, col, detail in fact.str_builds:
                yield self._violation(
                    summary.path,
                    line,
                    col,
                    f"eager string building in hot-path `{node[1]}`: "
                    f"{detail} formats on every execution; move it to "
                    "an error path, the obs layer, or format lazily",
                    (summary.path, root_path),
                )


@register_project_rule
class HotUnpooledEventRule(ProjectRule):
    id = "SIM307"
    name = "hot-unpooled-event"
    description = (
        "container displays (tuple/list/dict/set literals and "
        "comprehensions) passed as callback arguments to "
        "`engine.at`/`engine.after` inside hot loops allocate a fresh "
        "object per scheduled event"
    )
    rationale = (
        "The engine pools its event records precisely so that "
        "scheduling costs no allocation on the steady state -- but the "
        "pool cannot absorb argument containers the *caller* builds.  "
        "An `engine.after(d, cb, (src, dst))` inside a per-packet loop "
        "mints one tuple per event: at millions of events per run the "
        "caller re-introduces the allocator round-trip the pooled "
        "kernel just removed.  Pass scalars positionally (the varargs "
        "tuple is interned into the pooled event record), pre-build "
        "the container once outside the loop, or pre-bind the handler. "
        "Sites where the container genuinely varies per event get a "
        "justified `# simlint: allow-hot-unpooled-event` pragma."
    )
    example_bad = (
        "# core/queues/hot.py\n"
        "def flush(self, batch):\n"
        "    for pkt in batch:\n"
        "        self.engine.after(self.delay, self._emit,\n"
        "                          (pkt.src, pkt.dst))  # tuple per event\n"
    )
    example_good = (
        "# core/queues/hot.py\n"
        "def flush(self, batch):\n"
        "    after = self.engine.after\n"
        "    for pkt in batch:\n"
        "        after(self.delay, self._emit, pkt.src, pkt.dst)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.schedule_calls:
                if not rec.get("in_loop"):
                    continue
                for arg in rec.get("fresh_args", ()):
                    yield self._violation(
                        summary.path,
                        int(arg["line"]),
                        int(arg["col"]),
                        f"unpooled event argument in hot-path "
                        f"`{node[1]}`: {arg['detail']} is built for "
                        f"every `{rec['attr']}` call in the loop; pass "
                        "scalars positionally, hoist the container, or "
                        "pre-bind the handler",
                        (summary.path, root_path),
                    )


# ----------------------------------------------------------------------
# SIM401-SIM406: temporal soundness (deadline arithmetic, monotonicity,
# EDF tie-breaking) over the lattice from repro.lint.temporal
# ----------------------------------------------------------------------
def _span_fix(
    kind: str,
    path: str,
    description: str,
    span_fix: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Adapt a dataflow ``{"span", "replacement"}`` record to the fix
    payload :mod:`repro.lint.fixes` applies (``None`` passes through:
    the finding still fires, the rewrite is left to a human)."""
    if span_fix is None:
        return None
    edit = (span_fix["span"], str(span_fix["replacement"]))
    return _fix(kind, path, description, [edit])


def _capture_findings(
    rule: ProjectRule,
    model: ProjectModel,
    records: Callable[[FunctionFact], List[Dict[str, Any]]],
    fix_kind: str,
    captured: str,
    consequence: str,
) -> Iterator[Violation]:
    """SIM405/SIM506: one finding per scheduled callback the dataflow
    capture analyzer recorded (loop variables or container locals read
    by reference), with the default-argument rebinding fix."""
    for summary in model.summaries():
        for fact in summary.functions.values():
            for rec in records(fact):
                names = ", ".join(f"`{v}`" for v in rec["vars"])
                fix = _span_fix(
                    fix_kind,
                    summary.path,
                    f"bind {names} by default argument in the callback",
                    rec.get("fix"),
                )
                callee = "lambda" if rec["kind"] == "lambda" else f"`{rec['callee']}`"
                yield rule._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"{callee} passed to `.{rec['attr']}(...)` in "
                    f"`{fact.qualname}` captures {captured} {names}; {consequence}",
                    (summary.path,),
                    fix=fix,
                )


@register_project_rule
class ScheduleInPastRule(ProjectRule):
    id = "SIM401"
    name = "schedule-in-past"
    description = (
        "engine.at(t) where t is derived by subtraction with no clamp "
        "is not provably >= now; the engine raises mid-campaign when "
        "the difference goes negative"
    )
    rationale = (
        "Engine.at() rejects past timestamps at runtime, so a "
        "subtraction-derived schedule time (`deadline - slack`, "
        "`now - elapsed`) is a latent crash that only fires under the "
        "load patterns that make the difference negative -- exactly the "
        "near-critical-load campaigns where a dead run costs hours.  "
        "Anchor the value instead: `max(engine.now, t)`, or add the "
        "delta to `now` rather than subtracting from a deadline.  "
        "Values with no evidence either way (parameters, opaque calls) "
        "are never flagged; the engine's runtime guard remains the "
        "backstop."
    )
    example_bad = (
        "def arm(self, pkt):\n"
        "    t = pkt.deadline_ns - self.guard_ns   # may be < now\n"
        "    self.engine.at(t, self.fire)\n"
    )
    example_good = (
        "def arm(self, pkt):\n"
        "    t = max(self.engine.now, pkt.deadline_ns - self.guard_ns)\n"
        "    self.engine.at(t, self.fire)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary, fact in iter_temporal_facts(model):
            for rec in fact.schedule_calls:
                if rec["attr"] != "at" or rec["proof"] != SUBTRACTION:
                    continue
                arg = rec.get("arg_src") or "the time argument"
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"`{rec['receiver']}.at({arg})` in `{fact.qualname}` "
                    "schedules a subtraction-derived time with no "
                    "`max(now, ...)` clamp; the engine raises if it "
                    "lands in the past",
                    (summary.path,),
                )


@register_project_rule
class FloatTimeFlowRule(ProjectRule):
    id = "SIM402"
    name = "float-time-flow"
    description = (
        "float-derived values must not reach integer-nanosecond time "
        "sinks (engine.at/after arguments, *_ns/deadline/eligible "
        "assignment targets); construct times with sim.units helpers"
    )
    rationale = (
        "Simulated time is exact integer nanoseconds (sim/units.py): "
        "the engine heap, deadline comparisons, and the analytic EDF "
        "cross-checks all assume it.  A float-derived deadline "
        "(`rate * 1.5`, an un-rounded division) drifts by ulps, makes "
        "event order depend on accumulated rounding, and breaks "
        "byte-identical replay.  Convert at the boundary: us()/ms()/s() "
        "for literals, round() after rate arithmetic, // for splits."
    )
    example_bad = (
        "def schedule(self, engine, rate):\n"
        "    deadline_ns = rate * 1.5        # float into a ns name\n"
        "    engine.after(deadline_ns, self.fire)\n"
    )
    example_good = (
        "def schedule(self, engine, rate):\n"
        "    deadline_ns = round(rate * 1.5) # exact at the boundary\n"
        "    engine.after(deadline_ns, self.fire)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary, fact in iter_temporal_facts(model):
            for rec in fact.schedule_calls:
                # Exact-ns true divisions inside the argument are
                # SIM406's finding; do not double-report them here.
                if rec["ttype"] != FLOAT or rec["ns_divs"]:
                    continue
                arg = rec.get("arg_src") or "the time argument"
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"float-derived value `{arg}` passed to "
                    f"`{rec['receiver']}.{rec['attr']}(...)` in "
                    f"`{fact.qualname}`; time sinks take exact integer "
                    "nanoseconds (round() or use sim.units helpers)",
                    (summary.path,),
                )
            for rec in fact.float_time_assigns:
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"{rec['detail']} in `{fact.qualname}`; integer-time "
                    "names hold exact nanoseconds (round() or use "
                    "sim.units helpers)",
                    (summary.path,),
                )


@register_project_rule
class EpsilonFreeFloatCompareRule(ProjectRule):
    id = "SIM403"
    name = "epsilon-free-float-compare"
    description = (
        "==/!= or raw ordering on float-derived time/bandwidth "
        "quantities: accumulated rounding makes the comparison "
        "seed-dependent; compare exact integers or use an explicit "
        "epsilon helper"
    )
    rationale = (
        "Float bookkeeping drifts: summing and subtracting reservations "
        "leaves residues near 1e-16 that flip `== 0.0` and `<= cap` "
        "either way depending on arrival order.  Admission decisions "
        "built on such comparisons are nondeterministic across "
        "campaigns.  Keep the books in exact integers (bytes/second "
        "ints survive add/subtract exactly) or centralize the tolerance "
        "in one documented epsilon helper.  Sign/validity checks "
        "against integer literals (`bw <= 0`) are exempt -- ordering "
        "against zero is not an equality-with-drift hazard."
    )
    example_bad = (
        "remaining = self.reserved.get(link, 0.0) - bw\n"
        "self.reserved[link] = remaining if remaining > 1e-12 else 0.0\n"
    )
    example_good = (
        "# books kept in integer bytes/second: exact add/subtract\n"
        "self.reserved_bps[link] -= bps(bw)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary, fact in iter_temporal_facts(model):
            for rec in fact.float_compares:
                quantity = "time" if rec["quantity"] == "ns" else "bandwidth"
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"{rec['detail']} compares a float-derived "
                    f"{quantity} quantity in `{fact.qualname}`; keep "
                    "the books in exact integers or use an epsilon "
                    "helper",
                    (summary.path,),
                )


@register_project_rule
class UnstableEdfTiebreakRule(ProjectRule):
    id = "SIM404"
    name = "unstable-edf-tiebreak"
    description = (
        "deadline-keyed sorted()/.sort()/heappush in engine/queue/"
        "switch-reachable code with no deterministic tie-break: equal "
        "deadlines order arbitrarily; key on (deadline, uid)"
    )
    rationale = (
        "EDF says nothing about equal deadlines, so the implementation "
        "must: heapq is not stable, and a bare-deadline heap entry "
        "falls back to comparing payloads (a TypeError on dataclasses, "
        "insertion-address order otherwise).  The library idiom is the "
        "`(deadline, uid, payload)` tuple -- uid is the monotonic "
        "admission sequence, so ties break FIFO and replays are "
        "byte-identical.  The machine fix appends the `.uid` tie-break "
        "to the key."
    )
    example_bad = (
        "heapq.heappush(self._heap, (pkt.deadline, pkt))\n"
        "queue.sort(key=lambda p: p.deadline)\n"
    )
    example_good = (
        "heapq.heappush(self._heap, (pkt.deadline, pkt.uid, pkt))\n"
        "queue.sort(key=lambda p: (p.deadline, p.uid))\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for node, summary, fact, root_path in _hot_function_facts(model, graph):
            for rec in fact.sort_keys:
                fix = _span_fix(
                    "stable-sort-key",
                    summary.path,
                    f"append a `.uid` tie-break to the `{rec['key']}` "
                    f"{rec['kind']} key",
                    rec.get("fix"),
                )
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"{rec['detail']} in hot-path `{node[1]}`; equal "
                    "deadlines order arbitrarily -- key on "
                    "`(deadline, uid)`",
                    (summary.path, root_path),
                    fix=fix,
                )


@register_project_rule
class LateBindingCallbackRule(ProjectRule):
    id = "SIM405"
    name = "late-binding-callback"
    description = (
        "closure handed to engine.at/after captures a loop variable: "
        "Python closes over the variable, not its value, so every "
        "callback sees the final iteration when it fires"
    )
    rationale = (
        "Scheduled callbacks fire after the loop has finished, and a "
        "closure reads its free variables at call time -- so N "
        "callbacks armed in a loop all act on the last item.  The bug "
        "is silent (no exception, plausible-looking traffic) and "
        "load-dependent.  Bind at definition time instead: a default "
        "argument (`lambda it=it: ...`), functools.partial, or a "
        "factory function.  The machine fix rewrites the lambda to "
        "default-argument binding."
    )
    example_bad = (
        "for flow in flows:\n"
        "    engine.after(gap_ns, lambda: self.send(flow))\n"
        "    # every callback sends the *last* flow\n"
    )
    example_good = (
        "for flow in flows:\n"
        "    engine.after(gap_ns, lambda flow=flow: self.send(flow))\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        return _capture_findings(
            self,
            model,
            lambda fact: fact.loop_captures,
            "bind-loop-var",
            "loop variable(s)",
            "every callback fires with the final iteration's value -- bind "
            "with a default argument",
        )


@register_project_rule
class TruncatingTimeDivRule(ProjectRule):
    id = "SIM406"
    name = "truncating-time-div"
    description = (
        "true division `/` on exact-ns integers flowing to a time "
        "sink produces a float; use `//` (or a sim.units helper) to "
        "stay in exact integer nanoseconds"
    )
    rationale = (
        "`span_ns / 2` is a float even when span_ns is even: one "
        "division silently demotes the whole expression out of the "
        "exact-integer time domain, and past 2**53 ns (~104 days of "
        "simulated time) float cannot even represent every nanosecond.  "
        "Floor division keeps the arithmetic closed over ints with "
        "deterministic truncation.  The machine fix rewrites `/` to "
        "`//` when both operands are exact."
    )
    example_bad = (
        "def half_delay(self, engine, span_ns):\n"
        "    engine.after(span_ns / 2, self.fire)   # float, truncates\n"
    )
    example_good = (
        "def half_delay(self, engine, span_ns):\n"
        "    engine.after(span_ns // 2, self.fire)  # exact integer ns\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary, fact in iter_temporal_facts(model):
            for rec in fact.ns_true_divs:
                fix: Optional[Dict[str, Any]] = None
                if rec.get("op_span") is not None:
                    fix = _span_fix(
                        "int-time-div",
                        summary.path,
                        f"rewrite `/` to `//` in {rec['sink']}",
                        {"span": rec["op_span"], "replacement": "//"},
                    )
                left = rec.get("left_src") or "an exact-ns value"
                yield self._violation(
                    summary.path,
                    int(rec["line"]),
                    int(rec["col"]),
                    f"true division of exact-ns `{left}` in "
                    f"{rec['sink']} (`{fact.qualname}`) produces a "
                    "float; use `//` to stay in integer nanoseconds",
                    (summary.path,),
                    fix=fix,
                )


# ----------------------------------------------------------------------
# SIM5xx: scale soundness (container-lifecycle based)
# ----------------------------------------------------------------------
#: Growth methods that add elements without a key: the SIM501 signal.
_UNKEYED_GROW_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "insert", "heappush", "iadd"}
)

#: ``key_src`` tail tokens that identify per-packet/per-flow keys.
_UID_KEY_TOKENS = frozenset(
    {
        "uid",
        "pkt",
        "packet",
        "flow",
        "flow_id",
        "seq",
        "seqno",
        "msg_id",
        "span_id",
        "trace_id",
    }
)


def _keyed_by_uid(key_src: Optional[str]) -> bool:
    """Whether a subscript/setdefault key names a per-entity id: the
    last identifier of the key expression is matched, so a counter
    keyed by ``pkt.tclass`` (a handful of classes) stays exempt while
    ``pkt.uid`` / ``flow_id`` / ``state.span_id`` match."""
    if not key_src:
        return False
    token = key_src.strip("() ").rsplit(".", 1)[-1].strip("() ").lower()
    return (
        token in _UID_KEY_TOKENS
        or token.endswith("uid")
        or token.endswith("_id")
    )


def _site(op: Dict[str, Any]) -> Tuple[int, int]:
    return int(op["line"]), int(op["col"])


def _never_shrinks(cycle: AttrLifecycle) -> bool:
    """No method of the class ever removes from or replaces the attr."""
    return not cycle.shrinks and not cycle.rebinds


@register_project_rule
class UnboundedHotGrowthRule(ProjectRule):
    id = "SIM501"
    name = "unbounded-hot-growth"
    description = (
        "long-lived container attribute grows on the scale-hot path "
        "(per packet/tick) and no method of its class ever shrinks or "
        "replaces it; at 1024+ endpoints that state grows without bound"
    )
    rationale = (
        "The scale sweep (ROADMAP item 2) runs 512-4096 endpoints with "
        "flow churn: any per-event append into state that only ever "
        "grows turns a constant-memory simulation into a linear one, "
        "and the heavy-traffic regimes the paper cares about (rho -> 1) "
        "are exactly where event counts explode.  The rule fires when a "
        "container built in `__init__` has a grow site reachable from "
        "the hot-path modules or a self-re-arming scheduled callback, "
        "and *no* method anywhere in the class pops, clears, discards "
        "or rebinds it.  Give the container an eviction policy, a "
        "bounded deque, or an explicit close/reset path."
    )
    example_bad = (
        "class Telemetry:\n"
        "    def __init__(self):\n"
        "        self.samples = []\n"
        "    def _tick(self, engine):       # re-arms itself forever\n"
        "        self.samples.append(engine.now)\n"
        "        engine.after(PERIOD, self._tick)\n"
    )
    example_good = (
        "class Telemetry:\n"
        "    def __init__(self, capacity):\n"
        "        self.samples = deque(maxlen=capacity)  # bounded\n"
        "    def _tick(self, engine):\n"
        "        self.samples.append(engine.now)\n"
        "        engine.after(PERIOD, self._tick)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis: ScaleAnalysis = analyze_scale(model, graph)
        for lifecycle in analysis.classes():
            for attr in sorted(lifecycle.attrs):
                cycle = lifecycle.attrs[attr]
                if cycle.kind is None or cycle.bounded:
                    continue
                if not _never_shrinks(cycle):
                    continue
                hot_grows = [
                    (qualname, op)
                    for qualname, op in cycle.grows
                    if op.get("method") in _UNKEYED_GROW_METHODS
                    and analysis.is_scale_hot(lifecycle.module, qualname)
                ]
                if not hot_grows:
                    continue
                qualname, op = min(hot_grows, key=lambda pair: _site(pair[1]))
                witness = analysis.reachable[(lifecycle.module, qualname)]
                witness_summary = model.modules.get(witness[0])
                witness_path = (
                    witness_summary.path
                    if witness_summary
                    else lifecycle.summary.path
                )
                line, col = _site(op)
                yield self._violation(
                    lifecycle.summary.path,
                    line,
                    col,
                    f"`self.{attr}` ({cycle.kind}) grows via "
                    f"`.{op['method']}` in scale-hot `{qualname}` "
                    f"(reached from `{witness[1]}`) and no method of "
                    f"`{lifecycle.name}` ever shrinks or rebinds it; "
                    "bound it (deque maxlen / eviction) or add a "
                    "shrink path",
                    (lifecycle.summary.path, witness_path),
                )


@register_project_rule
class LinearMembershipHotRule(ProjectRule):
    id = "SIM502"
    name = "linear-membership-hot"
    description = (
        "`x in <list attr>` / `.index()` / `.count()` / `.remove()` on "
        "list-typed state in a scale-hot method is an O(n) scan per "
        "event; use a set (or dict) index"
    )
    rationale = (
        "A membership probe on a Python list walks it element by "
        "element: at 128 endpoints the list is short and the scan is "
        "invisible, at 4096 endpoints with deep VOQs it is the hot "
        "loop.  When the class only ever appends and probes, the "
        "machine fix swaps the `[]` for a `set()` and every `.append` "
        "for `.add` -- O(1) membership with identical semantics.  When "
        "the list also orders or indexes, keep the list but maintain a "
        "side set for the probes."
    )
    example_bad = (
        "class Dedup:\n"
        "    def __init__(self):\n"
        "        self._seen = []\n"
        "    def accept(self, pkt):      # hot: called per packet\n"
        "        if pkt.uid in self._seen:   # O(n) scan\n"
        "            return\n"
        "        self._seen.append(pkt.uid)\n"
    )
    example_good = (
        "class Dedup:\n"
        "    def __init__(self):\n"
        "        self._seen = set()\n"
        "    def accept(self, pkt):\n"
        "        if pkt.uid in self._seen:   # O(1) probe\n"
        "            return\n"
        "        self._seen.add(pkt.uid)\n"
    )

    #: Ops compatible with the list->set rewrite.
    _FIX_GROWS = frozenset({"append", "add"})
    _LINEAR = frozenset({"in", "index", "count", "remove"})

    def _set_fix(
        self, lifecycle: ClassLifecycle, cycle: AttrLifecycle
    ) -> Optional[Dict[str, Any]]:
        """The list->set rewrite, offered only when every class-wide op
        is an append or a membership probe on an initially-empty list
        (ordering, indexing, iteration or escaping would change
        behaviour under the swap)."""
        if not cycle.info.get("empty") or cycle.info.get("value_span") is None:
            return None
        if (
            cycle.rebuilds
            or cycle.rebinds
            or cycle.iterates
            or cycle.reads
            or cycle.escapes
            or cycle.others
        ):
            return None
        if any(op.get("method") == "remove" for _, op in cycle.shrinks):
            pass  # .remove works on sets too (and becomes O(1))
        elif cycle.shrinks:
            return None
        if not all(
            op.get("method") in self._FIX_GROWS and op.get("func_span")
            for _, op in cycle.grows
        ):
            return None
        if not all(
            op.get("method") in ("in", "remove") or op.get("func_span")
            for _, op in cycle.members + cycle.shrinks
        ):
            return None
        edits = [(cycle.info["value_span"], "set()")]
        for _, op in cycle.grows:
            if op.get("method") != "add":
                recv = op.get("recv_src") or f"self.{cycle.attr}"
                edits.append((op["func_span"], f"{recv}.add"))
        return _fix(
            "list-to-set",
            lifecycle.summary.path,
            f"rewrite `self.{cycle.attr}` to a set: `[]` -> `set()`"
            " and `.append` -> `.add`",
            edits,
        )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis: ScaleAnalysis = analyze_scale(model, graph)
        for lifecycle in analysis.classes():
            for attr in sorted(lifecycle.attrs):
                cycle = lifecycle.attrs[attr]
                if cycle.kind != "list":
                    continue
                linear_sites = [
                    (qualname, op)
                    for qualname, op in cycle.members + cycle.shrinks
                    if op.get("method") in self._LINEAR
                    and analysis.is_scale_hot(lifecycle.module, qualname)
                ]
                if not linear_sites:
                    continue
                fix = self._set_fix(lifecycle, cycle)
                for qualname, op in sorted(linear_sites, key=lambda p: _site(p[1])):
                    line, col = _site(op)
                    probe = (
                        "membership probe"
                        if op["method"] == "in"
                        else f"`.{op['method']}()`"
                    )
                    yield self._violation(
                        lifecycle.summary.path,
                        line,
                        col,
                        f"{probe} on list `self.{attr}` in scale-hot "
                        f"`{qualname}` scans O(n) per event; keep a set "
                        "index for membership",
                        (lifecycle.summary.path,),
                        fix=fix,
                    )
                    fix = None  # one fix application covers every site


@register_project_rule
class PoolLeakRule(ProjectRule):
    id = "SIM503"
    name = "pool-leak"
    description = (
        "object acquired from a paired pool API (PacketFactory.mint, "
        "at_cancellable/after_cancellable handles) is dropped without "
        "release on at least one control-flow path"
    )
    rationale = (
        "The packet pool and cancellable event handles are paired "
        "APIs: every `mint` wants a `recycle`, every cancellable arm "
        "wants a `cancel` (or a deliberate fire).  A handle dropped on "
        "the floor is pool memory that never returns -- invisible at "
        "128 endpoints, a steady leak at 4096 with churn.  The rule "
        "tracks each acquired local per control-flow path: a release "
        "on every path (or in a `finally`) is clean; a release behind "
        "an `if` is conditional; handing the object onward (return, "
        "container, callback) transfers ownership and ends the "
        "analysis."
    )
    example_bad = (
        "def probe(self, engine):\n"
        "    handle = engine.after_cancellable(T, self._fire)\n"
        "    if self.done:\n"
        "        handle.cancel()      # other path leaks the handle\n"
    )
    example_good = (
        "def probe(self, engine):\n"
        "    handle = engine.after_cancellable(T, self._fire)\n"
        "    try:\n"
        "        ...\n"
        "    finally:\n"
        "        handle.cancel()\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for summary in model.summaries():
            for fact in summary.functions.values():
                for flow in fact.pool_flows:
                    if flow.get("escapes") or flow.get("released") == "always":
                        continue
                    if flow.get("released") == "conditional":
                        lines = ", ".join(
                            str(line) for line in flow.get("release_lines", ())
                        )
                        detail = (
                            f"is released only on some paths (release at "
                            f"line {lines}); move the release to a "
                            "`finally` or cover every branch"
                        )
                    else:
                        detail = (
                            "is never released in this function and never "
                            "handed onward; pool memory leaks once per call"
                        )
                    yield self._violation(
                        summary.path,
                        int(flow["line"]),
                        int(flow["col"]),
                        f"`{flow['var']}` acquired from {flow['api']} "
                        f"`.{flow['attr']}(...)` in `{fact.qualname}` "
                        f"{detail}",
                        (summary.path,),
                    )


@register_project_rule
class UnboundedKeyedGrowthRule(ProjectRule):
    id = "SIM504"
    name = "unbounded-keyed-growth"
    description = (
        "dict attribute keyed by a per-packet/per-flow id only ever "
        "gains keys (no pop/del/clear anywhere in the class): under "
        "flow churn the map grows with every id ever seen"
    )
    rationale = (
        "A registry keyed by `pkt.uid` or `flow_id` whose class offers "
        "no removal path holds every entity the run ever created.  "
        "Unlike SIM501 this fires off the hot path too: a churn sweep "
        "creates and abandons thousands of flows through setup code, "
        "and the registry outlives them all.  Add a `pop`-based "
        "close/evict API and call it when the entity retires."
    )
    example_bad = (
        "class FlowRegistry:\n"
        "    def __init__(self):\n"
        "        self._flows = {}\n"
        "    def create(self, spec):\n"
        "        self._flows[spec.flow_id] = FlowState(spec)\n"
        "        # no method ever removes an entry\n"
    )
    example_good = (
        "class FlowRegistry:\n"
        "    def __init__(self):\n"
        "        self._flows = {}\n"
        "    def create(self, spec):\n"
        "        self._flows[spec.flow_id] = FlowState(spec)\n"
        "    def close(self, flow_id):\n"
        "        return self._flows.pop(flow_id, None)\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis: ScaleAnalysis = analyze_scale(model, graph)
        for lifecycle in analysis.classes():
            for attr in sorted(lifecycle.attrs):
                cycle = lifecycle.attrs[attr]
                if cycle.kind != "dict" or cycle.bounded:
                    continue
                if not _never_shrinks(cycle):
                    continue
                keyed = [
                    (qualname, op)
                    for qualname, op in cycle.grows
                    if op.get("method") in ("setitem", "setdefault")
                    and _keyed_by_uid(op.get("key_src"))
                ]
                if not keyed:
                    continue
                qualname, op = min(keyed, key=lambda pair: _site(pair[1]))
                line, col = _site(op)
                yield self._violation(
                    lifecycle.summary.path,
                    line,
                    col,
                    f"dict `self.{attr}` gains key `{op['key_src']}` in "
                    f"`{qualname}` and no method of `{lifecycle.name}` "
                    "ever removes entries; under flow churn this holds "
                    "every id ever seen -- add a pop/close path",
                    (lifecycle.summary.path,),
                )


@register_project_rule
class HotContainerRebuildRule(ProjectRule):
    id = "SIM505"
    name = "hot-container-rebuild"
    description = (
        "sorted()/list()/set()/.copy() over a whole state attribute "
        "inside a loop in a scale-hot method rebuilds O(n) per "
        "iteration; hoist it, or maintain the derived structure "
        "incrementally"
    )
    rationale = (
        "`sorted(self.queue)` inside a per-event loop is O(n log n) "
        "*per event*: the event rate times the container size is "
        "exactly the product the scale sweep maximises.  Either the "
        "rebuild is loop-invariant (hoist it above the loop) or the "
        "code wants an incrementally-maintained structure (a heap, an "
        "insertion-sorted list, a running copy)."
    )
    example_bad = (
        "def drain(self):            # hot: per event\n"
        "    for slot in self.slots:\n"
        "        order = sorted(self.pending)   # O(n log n) per slot\n"
        "        ...\n"
    )
    example_good = (
        "def drain(self):\n"
        "    order = sorted(self.pending)       # once per drain\n"
        "    for slot in self.slots:\n"
        "        ...\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        analysis: ScaleAnalysis = analyze_scale(model, graph)
        for lifecycle in analysis.classes():
            for attr in sorted(lifecycle.attrs):
                cycle = lifecycle.attrs[attr]
                for qualname, op in sorted(
                    cycle.rebuilds, key=lambda pair: _site(pair[1])
                ):
                    if not op.get("in_loop"):
                        continue
                    if not analysis.is_scale_hot(lifecycle.module, qualname):
                        continue
                    line, col = _site(op)
                    yield self._violation(
                        lifecycle.summary.path,
                        line,
                        col,
                        f"`{op['method']}(self.{attr})` rebuilds the "
                        f"whole container inside a loop in scale-hot "
                        f"`{qualname}`; hoist it out of the loop or "
                        "maintain it incrementally",
                        (lifecycle.summary.path,),
                    )


@register_project_rule
class LoopClosureRetentionRule(ProjectRule):
    id = "SIM506"
    name = "loop-closure-retention"
    description = (
        "callback handed to engine.at/after captures a whole local "
        "container; the closure keeps it alive until the callback "
        "fires, long past the scope that built it"
    )
    rationale = (
        "A scheduled closure holds strong references to its free "
        "variables until the engine fires (or drops) it.  Capturing a "
        "batch list or staging dict keeps the entire container -- and "
        "everything in it -- alive across simulated time, which at "
        "scale means thousands of dead batches pinned by pending "
        "events.  Bind the container as a default argument (evaluated "
        "once, releasable when the callback object dies) or pass the "
        "specific fields the callback needs."
    )
    example_bad = (
        "def flush_later(self, engine):\n"
        "    batch = self.drain()\n"
        "    engine.after(DELAY, lambda: self.commit(batch))\n"
        "    # `batch` pinned until the callback fires\n"
    )
    example_good = (
        "def flush_later(self, engine):\n"
        "    batch = self.drain()\n"
        "    engine.after(DELAY, lambda batch=batch: self.commit(batch))\n"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        return _capture_findings(
            self,
            model,
            lambda fact: fact.closure_retentions,
            "bind-retained-container",
            "container(s)",
            "the pending event pins the whole container -- bind it as a "
            "default argument or pass the needed fields",
        )
