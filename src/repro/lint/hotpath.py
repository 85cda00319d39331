"""Hot-path reachability + measured ranking under the SIM3xx-SIM5xx rules.

The SIM104 purity rule introduced the idea of the *hot path*: every
function reachable, through the approximate call graph, from the
modules the paper's forwarding pipeline lives in (the event kernel, the
switch, the host NIC model, the queue structures).  The SIM3xx
performance family (:mod:`repro.lint.project_rules`) needs the same
closure, so this module hoists it into one shared, memoized pass --
:func:`analyze_hotpath` -- that SIM104 and SIM301-SIM306 all consume.

The second half is the **profile-guided mode**, one ranking pass over
two kinds of dump.  :class:`ProfileIndex` ingests a ``cProfile``/
``pstats`` dump (``repro-qos profile run`` or any ``python -m cProfile
-o ...``) and measures a function by its cumulative time, matched by
``(file, def-line)`` with a bare-name fallback; :class:`MemProfileIndex`
ingests a ``repro-qos profile mem`` tracemalloc dump and measures a
function by the bytes allocated inside it.  :func:`annotate_profile`
ranks the SIM3xx/SIM4xx findings by seconds and the SIM5xx findings by
bytes:

- the top decile of measured findings is flagged ``hot:``;
- findings whose function the dump never measured are demoted to
  ``note`` severity -- real anti-patterns, but not where the time or
  memory goes *in the profiled workload*;
- everything in between is ``warm``.

The bucket plus the measured amount ride on
:attr:`repro.lint.violations.Violation.profile` and round-trip through
the JSON and SARIF emitters.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.lint.callgraph import CallGraph, Node, per_graph
from repro.lint.dataflow import FunctionFact
from repro.lint.projectmodel import ModuleSummary, ProjectModel
from repro.lint.violations import Violation

__all__ = [
    "HOT_PATH_PATTERNS",
    "SANCTIONED_PATH_PATTERNS",
    "HotPathAnalysis",
    "MemProfileIndex",
    "ProfileIndex",
    "analyze_hotpath",
    "annotate_profile",
    "is_sanctioned",
]

#: The hot path named by the paper's forwarding pipeline: the event
#: kernel, the switch, the source-host NIC model, and the queue
#: structures under study.  Substring-matched against summary paths
#: (same contract as :meth:`CallGraph.nodes_in_modules`).
HOT_PATH_PATTERNS: Tuple[str, ...] = (
    "sim/engine.py",
    "network/switch.py",
    "network/host.py",
    "core/queues/",
)

#: Sanctioned subsystems: the observability layer (``obs/``) is the one
#: blessed way to look at the hot path and its overhead is policed by a
#: dedicated benchmark; the campaign runner (``exec/``) does its work
#: between simulations, never inside one.
SANCTIONED_PATH_PATTERNS: Tuple[str, ...] = ("obs/", "exec/")


def is_sanctioned(path: str) -> bool:
    """Whether findings in ``path`` are exempt from hot-path rules."""
    return any(
        path.startswith(pattern) or f"/{pattern}" in path
        for pattern in SANCTIONED_PATH_PATTERNS
    )


@dataclass
class HotPathAnalysis:
    """The engine-reachable closure over one project model."""

    #: Every function defined in a hot-path module.
    roots: Set[Node]
    #: Reachable node -> the root that witnesses its reachability.
    reachable: Dict[Node, Node]


@per_graph
def analyze_hotpath(model: ProjectModel, graph: CallGraph) -> HotPathAnalysis:
    """Compute (once per call graph) the hot-path closure SIM104 and the
    SIM3xx rules share."""
    roots = graph.nodes_in_modules(HOT_PATH_PATTERNS)
    return HotPathAnalysis(roots=roots, reachable=graph.reachable_from(roots))


def iter_hot_facts(
    model: ProjectModel, graph: CallGraph
) -> Iterator[Tuple[Node, ModuleSummary, FunctionFact, str]]:
    """Hot-reachable ``(node, summary, fact, witness_path)`` quadruples
    in deterministic node order, sanctioned subsystems excluded."""
    return graph.facts(analyze_hotpath(model, graph).reachable, skip=is_sanctioned)


# ----------------------------------------------------------------------
# measured ranking: pstats seconds (SIM3xx/SIM4xx), tracemalloc bytes
# (SIM5xx)
# ----------------------------------------------------------------------
#: Schema tag written by ``repro-qos profile mem`` and required by the
#: reader -- a dump from a different writer fails fast, not quietly.
MEMPROFILE_SCHEMA = "simlint-memprofile/v1"


_Index = TypeVar("_Index", bound="_MeasuredIndex")


class _MeasuredIndex:
    """Per-file measurement records ``(file, ...)`` from one dump.

    Records are indexed by file basename; a record matches a model path
    when the two agree on their common suffix, so a dump taken from any
    working directory lines up with a lint run rooted elsewhere.
    """

    #: Dump kind and the ``repro-qos profile`` verb that writes one,
    #: for error messages.
    KIND = ""
    WRITER = ""
    #: Rule-id prefixes whose findings this measurement ranks.
    FAMILIES: Tuple[str, ...] = ()
    #: First 16 hex digits of the dump's sha256 (set by :meth:`load`);
    #: folded into the cache key, so a different dump is a miss.
    digest = ""

    def __init__(self, records: Sequence[Tuple[Any, ...]]) -> None:
        self._by_base: Dict[str, List[Tuple[Any, ...]]] = {}
        for record in records:
            base = record[0].rsplit("/", 1)[-1]
            self._by_base.setdefault(base, []).append(record)

    def _matching(self, path: str) -> Iterator[Tuple[Any, ...]]:
        for record in self._by_base.get(path.rsplit("/", 1)[-1], ()):
            filename = record[0]
            if (
                filename == path
                or filename.endswith("/" + path)
                or path.endswith("/" + filename)
            ):
                yield record

    @classmethod
    def load(cls: Type[_Index], path: Union[str, Path]) -> _Index:
        """Read a dump once: parse it and keep its digest.  Raises
        :class:`FileNotFoundError` when missing and :class:`ValueError`
        when unreadable or corrupt in any way."""
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ValueError(f"unreadable {cls.KIND} dump: {path} ({exc})")
        # Corrupt in any way: bad marshal/JSON/UTF-8, truncation, records
        # of the wrong type or length, nulls, unparseable or infinite numbers.
        try:
            index = cls._parse(data)
        except (ArithmeticError, AttributeError, EOFError, LookupError, TypeError, ValueError) as exc:
            raise ValueError(
                f"not a readable {cls.KIND} dump: {path} ({exc}) "
                f"(produce one with `repro-qos profile {cls.WRITER}`)"
            )
        index.digest = hashlib.sha256(data).hexdigest()[:16]
        return index

    @classmethod
    def _parse(cls: Type[_Index], data: bytes) -> _Index:
        raise NotImplementedError

    def measure(self, summary: ModuleSummary, fact: FunctionFact) -> Optional[float]:
        """What the dump measured in ``fact`` (``None``: never seen)."""
        raise NotImplementedError

    def attachment(self, measured: Optional[float]) -> Dict[str, Any]:
        """What a ranked finding carries beside its bucket."""
        raise NotImplementedError

    def totals(self) -> Dict[str, Any]:
        """The dump-wide figures that lead the stats block."""
        raise NotImplementedError


class ProfileIndex(_MeasuredIndex):
    """Cumulative-time lookup over one ``pstats`` dump.

    A lookup matches when the profiled filename and the model path agree
    on their common suffix *and* either the function's ``def`` line or
    its bare name matches (cProfile keys functions by definition line).
    """

    KIND = "pstats"
    WRITER = "run"
    FAMILIES = ("SIM3", "SIM4")

    def __init__(
        self,
        entries: Sequence[Tuple[str, int, str, float]],
        total_seconds: float,
    ) -> None:
        super().__init__(entries)
        self.total_seconds = total_seconds

    @classmethod
    def _parse(cls, data: bytes) -> "ProfileIndex":
        raw = marshal.loads(data)
        if not isinstance(raw, dict) or not raw:
            raise ValueError("no profile entries")
        entries: List[Tuple[str, int, str, float]] = []
        total = 0
        for (filename, lineno, funcname), row in raw.items():
            total += row[2]  # own time: the sum pstats reports as total_tt
            posix = str(filename).replace("\\", "/")
            if posix.startswith(("~", "<")):
                continue  # builtins / compiled / <string> frames
            entries.append((posix, int(lineno), str(funcname), float(row[3])))
        return cls(entries, float(total))

    def cumtime_for(self, path: str, line: int, name: str) -> Optional[float]:
        """Cumulative seconds for the function defined at ``path:line``
        (bare-name fallback), or ``None`` when the profile never saw it."""
        cums: List[float] = [
            cum
            for _, lineno, funcname, cum in self._matching(path)
            if lineno == line or funcname == name
        ]
        return max(cums, default=None)

    def measure(self, summary: ModuleSummary, fact: FunctionFact) -> Optional[float]:
        bare = fact.qualname.rsplit(".", 1)[-1]
        return self.cumtime_for(summary.path, fact.line, bare)

    def attachment(self, measured: Optional[float]) -> Dict[str, Any]:
        total = self.total_seconds
        return {
            "cum_seconds": round(measured, 6) if measured else 0.0,
            "fraction": round(measured / total, 6) if measured and total else 0.0,
        }

    def totals(self) -> Dict[str, Any]:
        return {"total_seconds": round(self.total_seconds, 6)}


class MemProfileIndex(_MeasuredIndex):
    """Per-site allocation lookup over one tracemalloc snapshot dump.

    The dump is the JSON produced by ``repro-qos profile mem``: total
    and peak traced bytes plus ``sites`` records of ``{file, line,
    size_bytes, count}`` (one per ``tracemalloc.statistics("lineno")``
    entry).  A finding is measured by the bytes allocated inside its
    enclosing function.
    """

    KIND = "memprofile"
    WRITER = "mem"
    FAMILIES = ("SIM5",)

    def __init__(
        self,
        sites: Sequence[Tuple[str, int, int]],
        total_bytes: int,
        peak_bytes: int,
    ) -> None:
        super().__init__(sites)
        self.total_bytes = total_bytes
        self.peak_bytes = peak_bytes

    @classmethod
    def _parse(cls, data: bytes) -> "MemProfileIndex":
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict) or payload.get("schema") != MEMPROFILE_SCHEMA:
            raise ValueError(f"not a {MEMPROFILE_SCHEMA} dump")
        sites: List[Tuple[str, int, int]] = []
        for site in payload.get("sites", ()):
            posix = str(site.get("file", "")).replace("\\", "/")
            if not posix or posix.startswith("<"):
                continue
            sites.append(
                (posix, int(site.get("line", 0)), int(site.get("size_bytes", 0)))
            )
        return cls(
            sites,
            int(payload.get("total_bytes", 0)),
            int(payload.get("peak_bytes", 0)),
        )

    def sites_for(self, path: str) -> Iterator[Tuple[int, int]]:
        """``(line, size_bytes)`` pairs recorded against ``path``."""
        for _, lineno, size in self._matching(path):
            yield lineno, size

    def measure(self, summary: ModuleSummary, fact: FunctionFact) -> Optional[float]:
        sizes = [
            size
            for line, size in self.sites_for(summary.path)
            if _enclosing_fact(summary, line) is fact
        ]
        return sum(sizes) if sizes else None

    def attachment(self, measured: Optional[float]) -> Dict[str, Any]:
        total = self.total_bytes
        return {
            "alloc_bytes": int(measured or 0),
            "fraction": round(measured / total, 6) if measured and total else 0.0,
        }

    def totals(self) -> Dict[str, Any]:
        return {"total_bytes": int(self.total_bytes), "peak_bytes": int(self.peak_bytes)}


def _enclosing_fact(
    summary: ModuleSummary, line: int
) -> Optional[FunctionFact]:
    """The function whose body contains ``line`` (nearest preceding
    ``def``; module level only as a last resort)."""
    best: Optional[FunctionFact] = None
    for fact in summary.functions.values():
        if fact.qualname == "<module>":
            continue
        if fact.line <= line and (best is None or fact.line > best.line):
            best = fact
    return best or summary.functions.get("<module>")


def annotate_profile(
    violations: Sequence[Violation],
    model: ProjectModel,
    index: _MeasuredIndex,
) -> Tuple[List[Violation], Dict[str, Any]]:
    """Rank the findings of ``index.FAMILIES`` by what the dump measured
    in their enclosing function, and attach ``{bucket, <amount>,
    fraction}`` to each: the top decile of measured findings is
    ``hot``, unmeasured ones are ``cold`` notes (real anti-patterns,
    but not where the time or memory goes *in the profiled workload*),
    the rest ``warm``.  A :class:`ProfileIndex` ranks SIM3xx and SIM4xx
    by cumulative seconds, a :class:`MemProfileIndex` SIM5xx by bytes;
    the families are disjoint, so a run may rank by both.

    Returns the annotated list (same order) plus the stats block the
    runner reports (``--format json``).
    """
    annotated = list(violations)
    ranked: List[int] = []
    measured: Dict[int, float] = {}
    for i, violation in enumerate(annotated):
        if not violation.rule_id.startswith(index.FAMILIES):
            continue
        ranked.append(i)
        summary = model.by_path.get(violation.path)
        if summary is not None:
            fact = _enclosing_fact(summary, violation.line)
            amount = index.measure(summary, fact) if fact is not None else None
            if amount is not None and amount > 0:
                measured[i] = amount
    order = sorted(measured, key=lambda i: (-measured[i], i))
    hot = set(order[: math.ceil(len(order) / 10)])
    counts = {"hot": 0, "warm": 0, "cold": 0}
    for i in ranked:
        bucket = "hot" if i in hot else "warm" if i in measured else "cold"
        counts[bucket] += 1
        annotated[i] = replace(
            annotated[i],
            profile={"bucket": bucket, **index.attachment(measured.get(i))},
        )
    stats = {**index.totals(), "ranked": len(ranked), "matched": len(measured)}
    stats.update(counts)
    return annotated, stats
