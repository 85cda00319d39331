"""Lightweight unit-dimension dataflow over naming conventions.

The library's correctness rests on two base quantities -- integer
**nanoseconds** for time and **bytes** for data (`repro.sim.units`) --
and on the naming discipline that marks them: ``*_ns``, ``*_us``,
``*_ms``, ``*_bytes``, ``*_bytes_per_ns``.  This module turns those
conventions into a small dimension domain and an intra-procedural
inference that:

- classifies identifiers by suffix (``deadline_ns`` -> ``ns``,
  ``size_bytes`` -> ``bytes``, ``rate_bytes_per_ns`` -> ``rate``);
- recognises the sanctioned constructions from ``repro.sim.units``
  (``us(20)``/``ms(10)``/``s(1)`` produce ``ns``; ``20 * US`` converts
  to ``ns``; ``8 * KB`` to ``bytes``);
- applies a tiny dimensional algebra (``bytes / rate -> ns``,
  ``ns * rate -> bytes``, division by a scalar preserves dimension);
- flags additive mixing of incompatible dimensions (``x_bytes +
  now_ns``) as it walks.

The per-function walk also records every call site (with the inferred
dimension of each argument -- the raw material for the interprocedural
SIM101 check and for the call graph), every iteration over an unordered
``set`` (SIM102), and every I/O or logging call (SIM104).  For the
parallel-safety pass (SIM201-SIM205, :mod:`repro.lint.parallel`) it
additionally records every **pool submission** (a callable handed to a
``*pool*``/``*executor*`` receiver's ``submit``/``map``, or the
``worker=`` hook of ``SweepExecutor``), every **module-global mutation**
(subscript assignment, mutating method call, ``global``-rebind),
**process-varying calls** (``hash()``, ``id()``, ``os.getpid()``,
wall-clock reads) and the arguments they taint, **file writes** (and
whether the function pairs them with an atomic ``replace``/``rename``),
and ``os.environ`` mutations.  Everything it produces is
JSON-serialisable so the project cache can replay it without re-parsing
the file.

For the hot-path performance pass (SIM301-SIM306,
:mod:`repro.lint.hotpath`) each ``for``/``while`` body additionally gets
one dedicated sub-walk (:class:`_LoopBodyCollector`) recording
**allocations per iteration** (literals, comprehensions, closures,
constructor calls), **repeated attribute-chain loads** with the spans a
hoist fix needs, **repeated global/builtin lookups**, and
**try/except blocks** used inside the loop; eager **string building**
(f-strings, ``%``, ``.format``, ``repr``) is recorded during the normal
walk, skipping ``raise`` statements exactly like SIM104 does.

For the temporal-soundness pass (SIM401-SIM406,
:mod:`repro.lint.temporal`) the walk additionally types every time-sink
expression on the exact-int-ns / float-derived / unknown lattice and
records **schedule calls** (``<engine>.at``/``.after`` with the time
argument's type and its ``>= now`` proof state), **float comparisons**
on ns/rate quantities, **deadline-keyed orderings** without a tie-break
(``sorted``/``.sort``/``heappush``), **loop-variable captures** in
closures handed to the scheduler, and **true divisions on exact-ns
operands** with the operator span the ``/`` -> ``//`` fix needs.
"""

from __future__ import annotations

import ast
import builtins
import functools
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.lint.temporal import (
    ANCHORED,
    EXACT,
    FLOAT,
    SCHEDULE_SINKS,
    SUBTRACTION,
    UNKNOWN,
    TimeInfo,
    TimeTyper,
    join_time,
    now_proof,
)

__all__ = [
    "FactRecord",
    "FunctionAnalyzer",
    "FunctionFact",
    "arg_names",
    "classify_name",
    "dims_compatible",
]

#: A dimension is one of: "ns", "us", "ms", "s", "bytes", "rate",
#: "scalar" -- or ``None`` when inference cannot tell (never flagged).
Dim = str

TIME_DIMS = frozenset({"ns", "us", "ms", "s"})

#: Suffix -> dimension, longest suffix first so ``_bytes_per_ns`` is not
#: misread as ``_ns``.
_SUFFIX_DIMS: Tuple[Tuple[str, Dim], ...] = (
    ("_bytes_per_ns", "rate"),
    ("_bytes", "bytes"),
    ("_ns", "ns"),
    ("_us", "us"),
    ("_ms", "ms"),
)

#: Whole identifiers with a known dimension (parameter names in
#: ``sim/units.py`` and ubiquitous locals).
_EXACT_DIMS: Mapping[str, Dim] = {
    "bytes_per_ns": "rate",
    "size_bytes": "bytes",
    "now": "ns",
    "deadline": "ns",
}

#: Well-known origins in ``repro.sim.units``: conversion constants...
_TIME_CONSTS = frozenset({"repro.sim.units.US", "repro.sim.units.MS", "repro.sim.units.S"})
_DATA_CONSTS = frozenset({"repro.sim.units.KB", "repro.sim.units.MB"})
#: ...and the sanctioned constructors, which all return integer ns.
_NS_CONSTRUCTORS = frozenset({"repro.sim.units.us", "repro.sim.units.ms", "repro.sim.units.s"})

#: Calls preserving the dimension of their (first) argument.
_DIM_PRESERVING_CALLS = frozenset({"round", "int", "float", "abs", "min", "max"})

#: Receiver attribute names that read as logging emitters.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "critical", "exception", "log"}
)
_LOG_RECEIVERS = frozenset({"log", "logger", "logging"})

#: Method names that hand a callable to a process/thread pool.  Any
#: ``.submit(...)``/``.map(...)`` counts only when the receiver *names*
#: a pool (``pool.submit``, ``self._executor.map``): this project's own
#: ``Fabric.submit`` is a packet-injection method, so attribute name
#: alone would drown the signal in false positives.
_POOL_SUBMIT_ATTRS = frozenset({"submit", "apply_async"})
_POOL_MAP_ATTRS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "map_async", "starmap_async"}
)
_POOL_RECEIVER_HINTS = ("pool", "executor")

#: Calls whose value differs between processes (or runs): the SIM203
#: taint sources.  Keyed by the dotted name as written *or* as resolved
#: through the import bindings.
_VARYING_FUNCS: Mapping[str, str] = {
    "hash": "hash() (salted per process via PYTHONHASHSEED)",
    "id": "id() (an address, unique per process)",
    "os.getpid": "os.getpid()",
    "os.urandom": "os.urandom()",
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "uuid.uuid4": "uuid.uuid4()",
}

#: Method names that mutate their receiver in place (dict/list/set
#: surface plus the get-or-create verbs of registry-style objects such
#: as ``MetricsRegistry``).
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "counter",
        "gauge",
        "histogram",
        "get_or_create",
        "register",
    }
)

#: ``os.environ`` methods that write the process environment.
_ENVIRON_WRITE_METHODS = frozenset({"update", "setdefault", "pop", "popitem", "clear"})

#: Rename calls that make a preceding temp-file write atomic.
_ATOMIC_RENAME_ATTRS = frozenset({"replace", "rename", "renames"})

#: Container-method effect classes for the SIM5xx scale-soundness
#: facts: which methods make long-lived ``self.<attr>`` state grow,
#: shrink, or pay an O(n) scan.
_GROW_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "insert", "setdefault", "update"}
)
_SHRINK_METHODS = frozenset(
    {"pop", "popitem", "popleft", "remove", "discard", "clear"}
)
#: Linear list methods SIM502 treats like membership tests.
_LINEAR_METHODS = frozenset({"index", "count"})
#: ``heapq`` module functions, matched on the terminal name so both
#: ``heapq.heappush(...)`` and a bare imported ``heappush(...)`` count.
_HEAP_GROW_FUNCS = frozenset({"heappush"})
_HEAP_SHRINK_FUNCS = frozenset({"heappop", "heappushpop", "heapreplace"})
#: Builtin calls that rebuild (full-copy/scan) a container per call.
_REBUILD_CALLS = frozenset({"sorted", "list", "set", "dict", "tuple", "frozenset"})
#: Paired resource APIs (SIM503): methods that hand out a pooled object
#: the caller must give back, and the give-back verbs.
_POOL_ACQUIRE_ATTRS = frozenset(
    {"mint", "acquire", "at_cancellable", "after_cancellable"}
)
_POOL_RELEASE_ATTRS = frozenset({"recycle", "release", "cancel"})

#: Constructor names whose every call allocates a fresh container
#: (SIM301).  Matched on the terminal name so both ``deque(...)`` and
#: ``collections.deque(...)`` count.
_CONTAINER_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
    }
)


def classify_name(identifier: str) -> Optional[Dim]:
    """Dimension implied by an identifier's naming convention, if any."""
    lowered = identifier.lower()
    exact = _EXACT_DIMS.get(lowered)
    if exact is not None:
        return exact
    for suffix, dim in _SUFFIX_DIMS:
        if lowered.endswith(suffix):
            return dim
    return None


def dims_compatible(a: Optional[Dim], b: Optional[Dim]) -> bool:
    """Whether two inferred dimensions may meet (additively or as an
    argument/parameter pair) without complaint.  Unknown (``None``) and
    ``scalar`` are compatible with everything: the checker only fires
    when *both* sides are confidently dimensioned and disagree."""
    if a is None or b is None:
        return True
    if a == "scalar" or b == "scalar":
        return True
    return a == b


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' when not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def arg_names(args: ast.arguments, *, star: bool = False) -> List[str]:
    """Parameter names of a def or lambda (``*args``/``**kw`` too when
    ``star``)."""
    names = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if star:
        names += [arg.arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return names


def loaded_names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name read (``Load`` context) anywhere under ``nodes``."""
    return {
        sub.id
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


class FactRecord:
    """JSON form of a fact dataclass, driven by its fields: the facts
    the project cache stores (:class:`CallFact`, :class:`FunctionFact`,
    :class:`~repro.lint.projectmodel.ModuleSummary`) share it.

    :meth:`to_dict` writes the fields in declaration order -- tuples as
    lists, nested records as dicts, dict keys as strings;
    :meth:`from_dict` inverts it from the field annotations (tuples and
    ``int`` keys come back) and leaves a field the payload lacks at its
    default.
    """

    __dataclass_fields__: ClassVar[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls: Type[_Record], payload: Mapping[str, Any]) -> _Record:
        build: Callable[..., _Record] = cls
        return build(
            **{
                name: decode(payload[name])
                for name, decode in _field_decoders(cls)
                if name in payload
            }
        )


_Record = TypeVar("_Record", bound=FactRecord)


def _to_json(value: Any) -> Any:
    if isinstance(value, FactRecord):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _to_json(item) for key, item in value.items()}
    return value


def _decoder(hint: Any) -> Callable[[Any], Any]:
    """Rebuild a value annotated ``hint`` from its JSON form."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is list:
        item = _decoder(args[0])
        return lambda value: [item(v) for v in value]
    if origin is dict:
        key, item = _decoder(args[0]), _decoder(args[1])
        return lambda value: {key(k): item(v) for k, v in value.items()}
    if origin is tuple:
        return tuple
    if isinstance(hint, type) and issubclass(hint, FactRecord):
        return hint.from_dict
    if hint is int:  # int dict keys come back from JSON as strings
        return int
    return lambda value: value


@functools.lru_cache(maxsize=None)
def _field_decoders(
    cls: Type[FactRecord],
) -> List[Tuple[str, Callable[[Any], Any]]]:
    hints = get_type_hints(cls)
    return [(f.name, _decoder(hints[f.name])) for f in fields(cls)]


@dataclass
class CallFact(FactRecord):
    """One call site: who is (maybe) called, with what dimensions."""

    raw: str  # dotted callee as written ("self.engine.after"), "" if opaque
    resolved: Optional[str]  # absolute dotted origin, when bindings resolve it
    attr: str  # terminal attribute/function name ("after")
    line: int
    col: int
    arg_dims: List[Optional[Dim]] = field(default_factory=list)
    kw_dims: Dict[str, Optional[Dim]] = field(default_factory=dict)


@dataclass
class FunctionFact(FactRecord):
    """Everything the project rules need to know about one function."""

    qualname: str  # "f", "Class.method", or "<module>"
    line: int
    params: List[str] = field(default_factory=list)
    is_method: bool = False
    calls: List[CallFact] = field(default_factory=list)
    #: (line, col, detail) for each iteration over an unordered set.
    set_iters: List[Tuple[int, int, str]] = field(default_factory=list)
    #: (line, col, detail) for each I/O / logging call.
    io_calls: List[Tuple[int, int, str]] = field(default_factory=list)
    #: (line, col, detail) for additive mixing of incompatible dims.
    mixes: List[Tuple[int, int, str]] = field(default_factory=list)
    #: One record per pool submission site (SIM201 + reachability roots):
    #: ``{"line", "col", "pool", "kind", "callee", "origin", "lambda"}``.
    submissions: List[Dict[str, Any]] = field(default_factory=list)
    #: (line, col, origin, kind, detail) per module-global mutation,
    #: ``kind`` in {"rebind", "subscript", "method"} (SIM202).
    global_mutations: List[Tuple[int, int, str, str, str]] = field(
        default_factory=list
    )
    #: One record per process-varying call site (SIM203): ``{"line",
    #: "col", "end_line", "end_col", "func", "arg_src"}``.
    varying_calls: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per call argument tainted by a process-varying value
    #: (SIM203): ``{"line", "col", "callee", "origin", "hits"}``.
    varying_args: List[Dict[str, Any]] = field(default_factory=list)
    #: (line, col, detail) per file-write call (SIM204).
    file_writes: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Count of atomic ``replace``/``rename`` calls in this function --
    #: a write paired with one follows the temp-then-rename idiom.
    atomic_renames: int = 0
    #: (line, col, detail) per ``os.environ`` mutation (SIM205).
    env_writes: List[Tuple[int, int, str]] = field(default_factory=list)
    #: One record per allocation site inside a loop body (SIM301):
    #: ``{"line", "col", "loop_line", "what", "detail", "callee",
    #: "origin"}`` -- ``what`` in {"literal", "comprehension", "closure",
    #: "container", "call"}; only ``"call"`` records need the rule to
    #: confirm the origin names a class.
    loop_allocs: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per attribute chain read >= 2x per loop iteration with
    #: no intervening write (SIM303): ``{"loop_line", "loop_col",
    #: "chain", "count", "sites", "alias", "alias_ok"}`` -- ``sites`` is
    #: ``[[line, col, end_line, end_col], ...]`` so the hoist fix can
    #: rewrite every occurrence.
    loop_attr_repeats: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per global/builtin name looked up >= 2x per loop
    #: iteration (SIM304): same shape as ``loop_attr_repeats`` plus
    #: ``"kind"`` in {"builtin", "global"}.
    loop_global_lookups: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per ``try``/``except`` inside a loop body (SIM305):
    #: ``{"line", "col", "loop_line", "types", "reraises_only"}``.
    loop_try_excepts: List[Dict[str, Any]] = field(default_factory=list)
    #: (line, col, detail) per eager string construction outside a
    #: ``raise`` (SIM306): f-strings, ``%`` on a string literal,
    #: ``"...".format(...)``, ``repr(...)``.
    str_builds: List[Tuple[int, int, str]] = field(default_factory=list)
    #: One record per ``<engine>.at``/``.after`` call (SIM401/SIM402,
    #: SIM307): ``{"line", "col", "attr", "receiver", "ttype",
    #: "quantity", "ns_divs", "arg_src", "in_loop", "fresh_args",
    #: "proof"}`` -- ``ttype`` on the temporal lattice, ``proof`` in
    #: {"anchored", "subtraction", "unknown"}, ``in_loop`` true when the
    #: call sits inside a loop body, ``fresh_args`` one
    #: ``{"line", "col", "detail", "src"}`` per container display among
    #: the callback arguments.
    schedule_calls: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per float-derived comparison on an ns/rate quantity
    #: (SIM403): ``{"line", "col", "quantity", "ops", "detail"}``.
    float_compares: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per float-derived value assigned to an integer-time
    #: target (SIM402): ``{"line", "col", "target", "detail"}``.
    float_time_assigns: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per deadline-keyed ordering with no tie-break
    #: (SIM404): ``{"line", "col", "kind", "key", "detail", "fix"}`` --
    #: ``kind`` in {"sorted", ".sort", "heappush"}; ``fix`` carries the
    #: span edit appending the stable ``uid`` key, or ``None``.
    sort_keys: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per loop-variable capture in a closure handed to the
    #: scheduler (SIM405): ``{"line", "col", "attr", "kind", "callee",
    #: "vars", "fix"}`` -- ``fix`` rebinds the variables as lambda
    #: default arguments, or ``None`` for local ``def`` closures.
    loop_captures: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per true-division on exact-ns operands flowing to a
    #: time sink (SIM406): ``{"line", "col", "sink", "left_src",
    #: "op_span"}`` -- ``op_span`` is the 1-char ``/`` span the
    #: ``//`` fix replaces (``None`` when the source is unavailable).
    ns_true_divs: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per operation on a ``self.<attr>`` container
    #: (SIM501/502/504/505), collected for methods only: ``{"attr",
    #: "op", "method", "line", "col", "in_loop", "key_src",
    #: "func_span", "recv_src"}`` -- ``op`` in {"grow", "shrink",
    #: "member", "rebuild", "rebind", "iterate", "read", "escape",
    #: "other"}; ``key_src`` is the key expression source for keyed
    #: grows; ``func_span``/``recv_src`` carry what the list->set
    #: rewrite needs for method-call sites.
    container_ops: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per paired-API acquire bound to a local (SIM503):
    #: ``{"var", "line", "col", "attr", "api", "escapes", "released",
    #: "release_lines"}`` -- ``released`` in {"always", "conditional",
    #: "never"}, judged per control-flow path by branch depth.
    pool_flows: List[Dict[str, Any]] = field(default_factory=list)
    #: One record per scheduled callback capturing a container-valued
    #: local by reference (SIM506): ``{"line", "col", "attr", "kind",
    #: "callee", "vars", "fix"}`` -- ``fix`` rebinds the containers as
    #: lambda default arguments, or ``None``.
    closure_retentions: List[Dict[str, Any]] = field(default_factory=list)


class FunctionAnalyzer:
    """One pass over a function (or module-level) body.

    ``bindings`` maps local names to absolute dotted origins (built from
    the module's imports by the project model); ``module_name`` anchors
    module-local symbols so ``US`` inside ``repro.sim.units`` itself
    resolves to ``repro.sim.units.US``.
    """

    def __init__(
        self,
        bindings: Mapping[str, str],
        module_name: str,
        module_symbols: Iterable[str],
        class_name: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        self.bindings = bindings
        self.module_name = module_name
        self.module_symbols = frozenset(module_symbols)
        self.class_name = class_name
        #: Full module source, for :func:`ast.get_source_segment` (the
        #: fix engine needs verbatim expression text).  Optional so
        #: callers replaying from cache need not keep sources around.
        self.source = source
        self.env: Dict[str, Optional[Dim]] = {}
        self.set_vars: Dict[str, bool] = {}
        self.fact: Optional[FunctionFact] = None
        self._in_raise = 0
        #: Names bound locally anywhere in the analyzed body (assignment
        #: makes a name local for the whole scope, so this is pre-scanned
        #: in :meth:`run` rather than accumulated during the walk).
        self.local_names: Set[str] = set()
        #: Names of functions *defined* inside the analyzed body.
        self.local_defs: Set[str] = set()
        #: Locals assigned from a process-varying value (SIM203 taint).
        self.varying_vars: Set[str] = set()
        #: Names the body re-declares with ``global``.
        self.declared_globals: Set[str] = set()
        #: Temporal lattice types of locals (name -> TimeInfo), kept in
        #: sync through assignments; the typer falls back to the SIM101
        #: naming convention for names it has never seen assigned.
        self.time_env: Dict[str, TimeInfo] = {}
        #: SIM401 proof states of locals (name -> anchored/subtraction).
        self.time_proofs: Dict[str, str] = {}
        self.typer = TimeTyper(classify_name, self.resolve_origin, self.time_env)
        #: Target names of the ``for`` loops enclosing the current
        #: statement (SIM405 late-binding capture detection).
        self._loop_stack: List[Set[str]] = []
        #: AST nodes of functions defined in this body, so a local
        #: ``def`` handed to the scheduler can be checked for captures.
        self._local_def_nodes: Dict[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]] = {}
        #: Locals currently bound to a container display/constructor
        #: (SIM506 retention detection); membership tracks the *latest*
        #: binding, so a rebind to a scalar clears the mark.
        self.container_locals: Set[str] = set()

    # -- origin resolution -------------------------------------------------

    def resolve_origin(self, node: ast.AST) -> Optional[str]:
        """Absolute dotted origin of a Name/Attribute chain, if known."""
        dotted = dotted_name(node)
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head == "self":
            if self.class_name is not None and rest and "." not in rest:
                return f"{self.module_name}.{self.class_name}.{rest}"
            return None
        origin = self.bindings.get(head)
        if origin is None:
            if head in self.module_symbols:
                origin = f"{self.module_name}.{head}"
            else:
                return None
        return f"{origin}.{rest}" if rest else origin

    def _const_kind(self, node: ast.AST) -> Optional[str]:
        """'time' / 'data' when ``node`` is a units conversion constant."""
        origin = self.resolve_origin(node)
        if origin in _TIME_CONSTS:
            return "time"
        if origin in _DATA_CONSTS:
            return "data"
        return None

    # -- dimension inference -----------------------------------------------

    def infer(self, node: ast.expr) -> Optional[Dim]:
        """Infer the dimension of an expression, recording call facts,
        mixing findings, and I/O calls along the way."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return None
            if isinstance(node.value, (int, float)):
                return "scalar"
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            const = self._const_kind(node)
            if const is not None:
                return "ns" if const == "time" else "bytes"
            return classify_name(node.id)
        if isinstance(node, ast.Attribute):
            self.infer(node.value)
            const = self._const_kind(node)
            if const is not None:
                return "ns" if const == "time" else "bytes"
            return classify_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            a = self.infer(node.body)
            b = self.infer(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.Compare):
            self.infer(node.left)
            for comparator in node.comparators:
                self.infer(comparator)
            self._note_float_compare(node)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.infer(element)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.infer(key)
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._visit_comprehension(node.generators)
            self.infer(node.elt)
            return None
        if isinstance(node, ast.DictComp):
            self._visit_comprehension(node.generators)
            self.infer(node.key)
            self.infer(node.value)
            return None
        if isinstance(node, ast.JoinedStr):
            interpolates = False
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    interpolates = True
                    self.infer(value.value)
            if interpolates and not self._in_raise and self.fact is not None:
                self.fact.str_builds.append(
                    (node.lineno, node.col_offset, "f-string interpolation")
                )
            return None
        if isinstance(node, (ast.Subscript, ast.Starred)):
            self.infer(node.value)
            return None
        return None

    def _infer_binop(self, node: ast.BinOp) -> Optional[Dim]:
        left_dim = self.infer(node.left)
        right_dim = self.infer(node.right)
        if isinstance(node.op, ast.Mult):
            # `x * US` / `KB * x` is the sanctioned conversion idiom:
            # whatever the left operand was scaled in, the product is in
            # base units (ns / bytes).
            for operand in (node.left, node.right):
                const = self._const_kind(operand)
                if const is not None:
                    return "ns" if const == "time" else "bytes"
            if left_dim == "scalar":
                return right_dim
            if right_dim == "scalar":
                return left_dim
            if {left_dim, right_dim} == {"ns", "rate"}:
                return "bytes"
            return None
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if right_dim == "scalar":
                return left_dim
            if left_dim == "bytes" and right_dim == "rate":
                return "ns"
            if left_dim == "bytes" and right_dim == "ns":
                return "rate"
            if left_dim is not None and left_dim == right_dim:
                return "scalar"
            return None
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if not dims_compatible(left_dim, right_dim):
                self._record_mix(node, left_dim, right_dim)
                return None
            if left_dim == "scalar":
                return right_dim
            if right_dim == "scalar":
                return left_dim
            return left_dim if left_dim == right_dim else None
        if isinstance(node.op, ast.Mod):
            if (
                isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and not self._in_raise
                and self.fact is not None
            ):
                self.fact.str_builds.append(
                    (node.lineno, node.col_offset, "`%` string formatting")
                )
            return left_dim
        return None

    def _record_mix(self, node: ast.BinOp, left: Optional[Dim], right: Optional[Dim]) -> None:
        if self.fact is None:
            return
        op = "+" if isinstance(node.op, ast.Add) else "-"
        self.fact.mixes.append(
            (
                node.lineno,
                node.col_offset,
                f"arithmetic mixes `{left}` with `{right}` ({left} {op} {right})",
            )
        )

    def _infer_call(self, node: ast.Call) -> Optional[Dim]:
        arg_dims: List[Optional[Dim]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self.infer(arg.value)
                arg_dims.append(None)
            else:
                arg_dims.append(self.infer(arg))
        kw_dims: Dict[str, Optional[Dim]] = {}
        for keyword in node.keywords:
            value_dim = self.infer(keyword.value)
            if keyword.arg is not None:
                kw_dims[keyword.arg] = value_dim

        raw = dotted_name(node.func)
        if not raw and isinstance(node.func, (ast.Attribute, ast.Subscript, ast.Call)):
            self.infer(node.func)  # still record nested facts
        resolved = self.resolve_origin(node.func)
        attr = raw.rsplit(".", 1)[-1] if raw else ""
        if self.fact is not None:
            self.fact.calls.append(
                CallFact(
                    raw=raw,
                    resolved=resolved,
                    attr=attr,
                    line=node.lineno,
                    col=node.col_offset,
                    arg_dims=arg_dims,
                    kw_dims=kw_dims,
                )
            )
            self._check_io_call(node, raw, resolved, attr)
            self._check_parallel_call(node, raw, resolved, attr)
            self._check_str_build_call(node, raw, attr)
            self._check_schedule_call(node, raw, attr)
            self._check_sort_call(node, raw, attr)

        # Return dimension of the call, for flow through assignments.
        if resolved in _NS_CONSTRUCTORS:
            return "ns"
        if attr in _DIM_PRESERVING_CALLS and arg_dims:
            known = {d for d in arg_dims if d is not None and d != "scalar"}
            if len(known) == 1:
                return known.pop()
            return arg_dims[0] if len(arg_dims) == 1 else None
        if attr:
            return classify_name(attr)
        return None

    # -- SIM104 raw material -----------------------------------------------

    def _check_io_call(
        self, node: ast.Call, raw: str, resolved: Optional[str], attr: str
    ) -> None:
        if self._in_raise or self.fact is None:
            return
        detail: Optional[str] = None
        if raw in ("print", "open", "input"):
            detail = f"calls `{raw}()`"
        elif raw.startswith(("sys.stdout.", "sys.stderr.")) and attr in ("write", "flush"):
            detail = f"writes to `{raw.rsplit('.', 1)[0]}`"
        elif raw.startswith("logging."):
            detail = f"calls `{raw}()` (logging)"
        else:
            head = raw.split(".", 1)[0] if raw else ""
            receiver = raw.rsplit(".", 2)[-2] if raw.count(".") else ""
            if attr in _LOG_METHODS and (
                head in _LOG_RECEIVERS or receiver in _LOG_RECEIVERS
            ):
                detail = f"calls `{raw}()` (logging; builds its message eagerly)"
        if detail is not None:
            self.fact.io_calls.append((node.lineno, node.col_offset, detail))

    # -- SIM306 raw material -----------------------------------------------

    def _check_str_build_call(self, node: ast.Call, raw: str, attr: str) -> None:
        """Record ``repr(...)`` and ``"...".format(...)`` sites (SIM306).

        f-strings and ``%`` formatting are caught expression-side in
        :meth:`infer`; only call-shaped builders land here.  Error paths
        (``raise``) are exempt, same as SIM104's I/O discipline.
        """
        if self._in_raise or self.fact is None:
            return
        if raw == "repr" and "repr" not in self.local_names:
            self.fact.str_builds.append(
                (node.lineno, node.col_offset, "`repr(...)`")
            )
        elif (
            attr == "format"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, str)
        ):
            self.fact.str_builds.append(
                (node.lineno, node.col_offset, "`str.format(...)`")
            )

    # -- SIM201-SIM205 raw material ----------------------------------------

    def _global_mutation_origin(
        self, node: ast.AST
    ) -> Optional[Tuple[str, str]]:
        """``(absolute origin, name as written)`` when ``node`` is a
        Name/Attribute chain rooted at a module-level binding that is
        *not* shadowed by a local, else ``None``."""
        dotted = dotted_name(node)
        if not dotted:
            return None
        head = dotted.split(".", 1)[0]
        if head == "self" or head in builtins.__dict__:
            return None
        if head in self.local_names:
            return None
        origin = self.resolve_origin(node)
        if origin is None and head in self.declared_globals:
            rest = dotted.partition(".")[2]
            origin = f"{self.module_name}.{head}"
            if rest:
                origin = f"{origin}.{rest}"
        if origin is None:
            return None
        return origin, dotted

    def _lambda_payload(self, node: ast.Lambda) -> Dict[str, Any]:
        """Everything the lift-lambda fix needs: params, verbatim body
        text, free variables (which veto the lift), and the exact span."""
        params = arg_names(node.args)
        known = (
            set(params)
            | set(self.module_symbols)
            | set(self.bindings)
            | set(dir(builtins))
        )
        free = sorted(loaded_names([node.body]) - known)
        has_defaults = bool(node.args.defaults) or any(
            default is not None for default in node.args.kw_defaults
        )
        return {
            "params": params,
            "body_src": self._src(node.body),
            "free_vars": free,
            "line": node.lineno,
            "col": node.col_offset,
            "end_line": node.end_lineno if node.end_lineno else node.lineno,
            "end_col": (
                node.end_col_offset
                if node.end_col_offset is not None
                else node.col_offset
            ),
            "has_varargs": bool(node.args.vararg or node.args.kwarg),
            "has_defaults": has_defaults,
        }

    def _record_submission(
        self, call: ast.Call, payload: ast.expr, pool: str, how: str
    ) -> None:
        """Classify the callable handed to a pool; SIM201's raw material
        and the seed of the worker-reachability roots."""
        if self.fact is None:
            return
        record: Dict[str, Any] = {
            "line": call.lineno,
            "col": call.col_offset,
            "pool": pool,
            "how": how,
            "origin": None,
            "lambda": None,
        }
        if isinstance(payload, ast.Lambda):
            record["kind"] = "lambda"
            record["callee"] = "<lambda>"
            record["lambda"] = self._lambda_payload(payload)
        else:
            dotted = dotted_name(payload)
            origin = self.resolve_origin(payload)
            record["callee"] = dotted
            record["origin"] = origin
            if not dotted:
                record["kind"] = "opaque"
            elif dotted.startswith("self."):
                record["kind"] = "bound-method"
            elif "." not in dotted and dotted in self.local_defs:
                record["kind"] = "local-function"
            elif "." not in dotted and dotted in self.local_names:
                record["kind"] = "variable"
            else:
                record["kind"] = "named"
        self.fact.submissions.append(record)

    def _varying_hits(self, node: ast.expr) -> List[str]:
        """Human-readable descriptions of every process-varying value
        inside ``node`` (direct calls plus tainted locals)."""
        hits: List[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                raw = dotted_name(sub.func)
                key: Optional[str] = raw if raw in _VARYING_FUNCS else None
                if key is None:
                    resolved = self.resolve_origin(sub.func)
                    if resolved in _VARYING_FUNCS:
                        key = resolved
                if key is not None:
                    hits.append(_VARYING_FUNCS[key])
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.varying_vars:
                    hits.append(
                        f"`{sub.id}` (assigned from a process-varying value)"
                    )
        return hits

    def _check_parallel_call(
        self, node: ast.Call, raw: str, resolved: Optional[str], attr: str
    ) -> None:
        """Record pool submissions, global mutations, varying values,
        file writes, and environment writes at one call site."""
        if self.fact is None:
            return

        # Pool submissions: `<pool-ish>.submit(fn, ...)` / `.map(fn, it)`.
        receiver = raw.rsplit(".", 1)[0] if "." in raw else ""
        receiver_last = receiver.rsplit(".", 1)[-1].lower()
        if (
            receiver
            and any(hint in receiver_last for hint in _POOL_RECEIVER_HINTS)
            and attr in (_POOL_SUBMIT_ATTRS | _POOL_MAP_ATTRS)
            and node.args
        ):
            payload = node.args[0]
            if not isinstance(payload, ast.Starred):
                self._record_submission(node, payload, pool=receiver, how=attr)
        # The executor's own hook: SweepExecutor(worker=fn).
        callee_tail = (resolved or raw).rsplit(".", 1)[-1]
        if callee_tail == "SweepExecutor":
            for keyword in node.keywords:
                if keyword.arg == "worker":
                    self._record_submission(
                        node, keyword.value, pool=raw or callee_tail, how="worker="
                    )

        # Process-varying calls (SIM203 sources).
        varying_key: Optional[str] = raw if raw in _VARYING_FUNCS else None
        if varying_key is None and resolved in _VARYING_FUNCS:
            varying_key = resolved
        if varying_key is not None:
            arg_src: Optional[str] = None
            call_src: Optional[str] = None
            if self.source is not None:
                if len(node.args) == 1 and not isinstance(
                    node.args[0], ast.Starred
                ):
                    arg_src = ast.get_source_segment(self.source, node.args[0])
                call_src = ast.get_source_segment(self.source, node)
            self.fact.varying_calls.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "end_line": (
                        node.end_lineno if node.end_lineno else node.lineno
                    ),
                    "end_col": (
                        node.end_col_offset
                        if node.end_col_offset is not None
                        else node.col_offset
                    ),
                    "func": varying_key,
                    "detail": _VARYING_FUNCS[varying_key],
                    "nargs": len(node.args),
                    "arg_src": arg_src,
                    "call_src": call_src,
                }
            )
        else:
            # Taint flowing *into* this call's arguments (SIM203 sinks).
            hits: List[str] = []
            for arg in node.args:
                target = arg.value if isinstance(arg, ast.Starred) else arg
                hits.extend(self._varying_hits(target))
            for keyword in node.keywords:
                hits.extend(self._varying_hits(keyword.value))
            if hits:
                self.fact.varying_args.append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset,
                        "callee": raw,
                        "origin": resolved,
                        "attr": attr,
                        "hits": sorted(set(hits)),
                    }
                )

        # Environment writes (SIM205).
        if isinstance(node.func, ast.Attribute):
            receiver_origin = self.resolve_origin(node.func.value)
        else:
            receiver_origin = None
        if attr in _ENVIRON_WRITE_METHODS and receiver_origin == "os.environ":
            self.fact.env_writes.append(
                (node.lineno, node.col_offset, f"`os.environ.{attr}(...)`")
            )
        elif resolved in ("os.putenv", "os.unsetenv"):
            self.fact.env_writes.append(
                (node.lineno, node.col_offset, f"`{resolved}(...)`")
            )
        # Mutating method on a module-global receiver (SIM202).
        elif attr in _MUTATING_METHODS and isinstance(node.func, ast.Attribute):
            target_global = self._global_mutation_origin(node.func.value)
            if target_global is not None:
                origin, written = target_global
                self.fact.global_mutations.append(
                    (
                        node.lineno,
                        node.col_offset,
                        origin,
                        "method",
                        f"`{written}.{attr}(...)`",
                    )
                )

        # File writes and the atomic-rename idiom (SIM204).
        if raw == "open":
            mode: Optional[str] = None
            if (
                len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                mode = node.args[1].value
            for keyword in node.keywords:
                if (
                    keyword.arg == "mode"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    mode = keyword.value.value
            if mode is not None and any(flag in mode for flag in "wax+"):
                self.fact.file_writes.append(
                    (node.lineno, node.col_offset, f"`open(..., {mode!r})`")
                )
        elif attr in ("write_text", "write_bytes"):
            self.fact.file_writes.append(
                (node.lineno, node.col_offset, f"`.{attr}(...)`")
            )
        if attr in _ATOMIC_RENAME_ATTRS:
            if raw.startswith("os.") or resolved in (
                "os.replace",
                "os.rename",
                "os.renames",
            ):
                self.fact.atomic_renames += 1
            else:
                # `tmp.replace(path)` / `self.tmp_path.rename(...)`:
                # receiver *names* a temp/path object.  Bare
                # `s.replace(old, new)` (str) stays uncounted.
                if any(
                    hint in receiver_last for hint in ("tmp", "temp", "path")
                ):
                    self.fact.atomic_renames += 1

    def _note_store_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        """Record global rebinds, global subscript writes, and
        ``os.environ[...]`` writes hiding in an assignment target."""
        if self.fact is None:
            return
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                self.fact.global_mutations.append(
                    (
                        stmt.lineno,
                        stmt.col_offset,
                        f"{self.module_name}.{target.id}",
                        "rebind",
                        f"rebinds module global `{target.id}` "
                        "(declared `global`)",
                    )
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_store_target(element, stmt)
            return
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        if self.resolve_origin(base) == "os.environ":
            self.fact.env_writes.append(
                (stmt.lineno, stmt.col_offset, "`os.environ[...] = ...`")
            )
            return
        target_global = self._global_mutation_origin(base)
        if target_global is not None:
            origin, written = target_global
            self.fact.global_mutations.append(
                (
                    stmt.lineno,
                    stmt.col_offset,
                    origin,
                    "subscript",
                    f"`{written}[...] = ...`",
                )
            )

    def _note_varying_assign(self, value: ast.expr, targets: List[ast.expr]) -> None:
        """Propagate SIM203 taint through simple assignments."""
        if not self._varying_hits(value):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.varying_vars.add(target.id)

    # -- SIM401-SIM406 raw material ----------------------------------------

    _CMP_SYMBOLS: Mapping[type, str] = {
        ast.Eq: "==",
        ast.NotEq: "!=",
        ast.Lt: "<",
        ast.LtE: "<=",
        ast.Gt: ">",
        ast.GtE: ">=",
    }

    def _src(self, node: ast.expr) -> Optional[str]:
        if self.source is None:
            return None
        return ast.get_source_segment(self.source, node)

    @staticmethod
    def _is_int_literal(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        )

    @staticmethod
    def _is_time_target_name(terminal: str) -> bool:
        """Whether an assignment target names an integer-time quantity."""
        return classify_name(terminal) == "ns" or terminal.lower() == "eligible"

    def _note_temporal_assign(
        self, targets: List[ast.expr], value: ast.expr, stmt: ast.stmt
    ) -> None:
        """Track the lattice through assignments and flag float values
        landing on ``*_ns``/deadline/eligible targets (SIM402/SIM406)."""
        info = self.typer.info(value)
        proof = now_proof(value, self.time_proofs)
        for target in targets:
            if isinstance(target, ast.Name):
                self.time_env[target.id] = info
                self.time_proofs[target.id] = proof
        if self.fact is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                terminal = target.id
            elif isinstance(target, ast.Attribute):
                terminal = target.attr
            else:
                continue
            if not self._is_time_target_name(terminal):
                continue
            divs = self._ns_div_records(value, f"assignment to `{terminal}`")
            if divs:
                self.fact.ns_true_divs.extend(divs)
            elif info.ttype == FLOAT:
                self.fact.float_time_assigns.append(
                    {
                        "line": stmt.lineno,
                        "col": stmt.col_offset,
                        "target": terminal,
                        "detail": (
                            f"float-derived value assigned to integer-time "
                            f"target `{terminal}`"
                        ),
                    }
                )
            # One record per statement is enough for the rule.
            break

    def _note_float_compare(self, node: ast.Compare) -> None:
        """Record ``==``/``!=``/raw ordering touching a float-derived
        ns/rate quantity (SIM403).  Ordering against a bare *integer*
        literal stays exempt -- ``if bw_bytes_per_ns <= 0`` is a sign
        check, not deadline arithmetic."""
        if self.fact is None:
            return
        operands = [node.left, *node.comparators]
        infos = [self.typer.info(operand) for operand in operands]
        quantity = next(
            (i.quantity for i in infos if i.quantity in ("ns", "rate")), None
        )
        if quantity is None or not any(i.ttype == FLOAT for i in infos):
            return
        symbols: List[str] = []
        flagged = False
        for index, op in enumerate(node.ops):
            symbol = self._CMP_SYMBOLS.get(type(op))
            if symbol is None:
                continue
            symbols.append(symbol)
            left_info, right_info = infos[index], infos[index + 1]
            if left_info.ttype != FLOAT and right_info.ttype != FLOAT:
                continue
            if symbol not in ("==", "!=") and (
                self._is_int_literal(operands[index])
                or self._is_int_literal(operands[index + 1])
            ):
                continue
            flagged = True
        if not flagged:
            return
        src = self._src(node)
        self.fact.float_compares.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "quantity": quantity,
                "ops": symbols,
                "detail": f"`{src}`" if src else f"`{'/'.join(symbols)}` comparison",
            }
        )

    def _ns_div_records(self, expr: ast.expr, sink: str) -> List[Dict[str, Any]]:
        """True divisions on exact-ns operands inside a time-sink
        expression (SIM406), with the ``/`` span the ``//`` fix needs."""
        records: List[Dict[str, Any]] = []
        for sub in ast.walk(expr):
            if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)):
                continue
            left = self.typer.info(sub.left)
            right = self.typer.info(sub.right)
            if left.ttype != EXACT or left.quantity != "ns":
                continue
            if right.ttype != EXACT:
                continue
            records.append(
                {
                    "line": sub.lineno,
                    "col": sub.col_offset,
                    "sink": sink,
                    "left_src": self._src(sub.left),
                    "op_span": self._div_op_span(sub),
                }
            )
        return records

    def _div_op_span(self, node: ast.BinOp) -> Optional[List[int]]:
        """The 1-character span of the ``/`` operator between the
        operands, located in the source text (``None`` if unavailable)."""
        if self.source is None:
            return None
        left_end_line = node.left.end_lineno
        left_end_col = node.left.end_col_offset
        if left_end_line is None or left_end_col is None:
            return None
        lines = self.source.splitlines()
        for lineno in range(left_end_line, node.right.lineno + 1):
            if lineno - 1 >= len(lines):
                break
            text = lines[lineno - 1]
            start = left_end_col if lineno == left_end_line else 0
            stop = node.right.col_offset if lineno == node.right.lineno else len(text)
            index = text.find("/", start, stop)
            if index >= 0:
                return [lineno, index, lineno, index + 1]
        return None

    #: Fresh-per-call container displays among callback args (SIM307).
    _FRESH_ARG_KINDS = (
        (ast.Tuple, "a tuple literal"),
        (ast.List, "a list literal"),
        (ast.Dict, "a dict literal"),
        (ast.Set, "a set literal"),
        (ast.ListComp, "a list comprehension"),
        (ast.SetComp, "a set comprehension"),
        (ast.DictComp, "a dict comprehension"),
        (ast.GeneratorExp, "a generator expression"),
    )

    def _check_schedule_call(self, node: ast.Call, raw: str, attr: str) -> None:
        """Record ``<engine>.at``/``.after`` sites: the time argument's
        lattice type, its ``>= now`` proof, any exact-ns true divisions
        inside it, whether the site sits inside a loop, fresh container
        displays among the callback args (SIM307), and loop-captured
        closures among the callback args."""
        if self.fact is None:
            return
        sink = SCHEDULE_SINKS.get(attr)
        if sink is None or len(node.args) <= sink:
            return
        receiver = raw.rsplit(".", 1)[0] if "." in raw else ""
        if "engine" not in receiver.rsplit(".", 1)[-1].lower():
            return
        time_arg = node.args[sink]
        if isinstance(time_arg, ast.Starred):
            return
        info = self.typer.info(time_arg)
        divs = self._ns_div_records(time_arg, f"`{raw}(...)` time argument")
        self.fact.ns_true_divs.extend(divs)
        fresh_args = []
        for arg in node.args[sink + 1 :]:
            for kind, detail in self._FRESH_ARG_KINDS:
                if isinstance(arg, kind):
                    fresh_args.append(
                        {
                            "line": arg.lineno,
                            "col": arg.col_offset,
                            "detail": detail,
                            "src": self._src(arg),
                        }
                    )
                    break
        self.fact.schedule_calls.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "attr": attr,
                "receiver": receiver,
                "ttype": info.ttype,
                "quantity": info.quantity,
                "ns_divs": len(divs),
                "arg_src": self._src(time_arg),
                "in_loop": bool(self._loop_stack),
                "fresh_args": fresh_args,
                "proof": (
                    now_proof(time_arg, self.time_proofs)
                    if attr in ("at", "at_cancellable")
                    else ANCHORED
                ),
            }
        )
        callbacks = node.args[sink + 1 :]
        if self.container_locals:
            for callback in callbacks:
                self._note_captures(
                    node, attr, callback, self.container_locals, self.fact.closure_retentions
                )
        if self._loop_stack:
            active: Set[str] = set().union(*self._loop_stack)
            for callback in callbacks:
                self._note_captures(node, attr, callback, active, self.fact.loop_captures)

    def _note_captures(
        self,
        call: ast.Call,
        attr: str,
        callback: ast.expr,
        names: Set[str],
        records: List[Dict[str, Any]],
    ) -> None:
        """One scheduled callback -- a lambda, or the name of a ``def``
        in this body -- that reads any of ``names`` by reference: loop
        variables for SIM405, container locals for SIM506.  A
        single-line lambda gets the fix rebinding them as default
        arguments."""
        fix: Optional[Dict[str, Any]] = None
        if isinstance(callback, ast.Lambda):
            params = arg_names(callback.args, star=True)
            captured = sorted(loaded_names([callback.body]) & names - set(params))
            kind, callee = "lambda", "<lambda>"
            plain = [arg.arg for arg in callback.args.args]
            if (
                len(plain) == len(params)
                and not callback.args.defaults
                and not any(d is not None for d in callback.args.kw_defaults)
                and callback.body.lineno == callback.lineno
            ):
                bound = ", ".join([*plain, *[f"{v}={v}" for v in captured]])
                fix = {
                    "span": [
                        callback.lineno,
                        callback.col_offset,
                        callback.body.lineno,
                        callback.body.col_offset,
                    ],
                    "replacement": f"lambda {bound}: ",
                }
        elif isinstance(callback, ast.Name) and callback.id in self._local_def_nodes:
            def_node = self._local_def_nodes[callback.id]
            local = set(arg_names(def_node.args)) | {
                sub.id
                for stmt in def_node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del))
            }
            captured = sorted(loaded_names(def_node.body) & names - local)
            kind, callee = "local-def", callback.id
        else:
            return
        if captured:
            records.append(
                {
                    "line": call.lineno,
                    "col": call.col_offset,
                    "attr": attr,
                    "kind": kind,
                    "callee": callee,
                    "vars": captured,
                    "fix": fix,
                }
            )

    #: Terminal names read as deadline keys by the SIM404 detector.
    @staticmethod
    def _deadline_terminal(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        lowered = name.lower()
        if (
            lowered == "deadline"
            or lowered.endswith("_deadline")
            or lowered.startswith("deadline")
            or lowered == "eligible"
        ):
            return name
        return None

    def _check_sort_call(self, node: ast.Call, raw: str, attr: str) -> None:
        """Record deadline-keyed orderings with no tie-break (SIM404):
        ``sorted``/``.sort`` whose key lambda returns a bare deadline,
        and ``heappush`` of a ``(deadline, payload)`` 2-tuple."""
        if self.fact is None:
            return
        if (raw == "sorted" and "sorted" not in self.local_names) or attr == "sort":
            key_lambda: Optional[ast.Lambda] = None
            for keyword in node.keywords:
                if keyword.arg == "key" and isinstance(keyword.value, ast.Lambda):
                    key_lambda = keyword.value
            if key_lambda is None:
                return
            body = key_lambda.body
            key_name = self._deadline_terminal(body)
            if key_name is None:
                return
            kind = "sorted" if raw == "sorted" else ".sort"
            fix: Optional[Dict[str, Any]] = None
            params = [arg.arg for arg in key_lambda.args.args]
            if (
                isinstance(body, ast.Attribute)
                and isinstance(body.value, ast.Name)
                and len(params) == 1
                and body.value.id == params[0]
            ):
                body_src = self._src(body)
                if body_src is not None and body.end_lineno is not None:
                    fix = {
                        "span": [
                            body.lineno,
                            body.col_offset,
                            body.end_lineno,
                            body.end_col_offset,
                        ],
                        "replacement": f"({body_src}, {params[0]}.uid)",
                    }
            self.fact.sort_keys.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "kind": kind,
                    "key": key_name,
                    "detail": f"`{kind}` keyed on `{key_name}` alone",
                    "fix": fix,
                }
            )
            return
        if "heappush" not in (attr or raw):
            return
        if len(node.args) < 2 or isinstance(node.args[1], ast.Starred):
            return
        item = node.args[1]
        if isinstance(item, ast.Tuple):
            if len(item.elts) != 2:
                return
            first, last = item.elts
            key_name = self._deadline_terminal(first)
            if key_name is None:
                return
            fix = None
            if isinstance(last, (ast.Name, ast.Attribute)):
                last_src = self._src(last)
                if last_src is not None:
                    fix = {
                        "span": [
                            last.lineno,
                            last.col_offset,
                            last.lineno,
                            last.col_offset,
                        ],
                        "replacement": f"{last_src}.uid, ",
                    }
            self.fact.sort_keys.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "kind": "heappush",
                    "key": key_name,
                    "detail": f"`heappush` of `({key_name}, <payload>)` with no tie-break",
                    "fix": fix,
                }
            )
        else:
            key_name = self._deadline_terminal(item)
            if key_name is not None:
                self.fact.sort_keys.append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset,
                        "kind": "heappush",
                        "key": key_name,
                        "detail": f"`heappush` keyed on bare `{key_name}`",
                        "fix": None,
                    }
                )

    # -- SIM102 raw material -----------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> Optional[str]:
        """A human-readable description when ``node`` is unordered-set
        valued, else ``None``."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("set", "frozenset"):
                return f"`{dotted}(...)`"
        if isinstance(node, ast.Name) and self.set_vars.get(node.id):
            return f"set-valued variable `{node.id}`"
        return None

    def _note_iteration(self, iter_node: ast.expr) -> None:
        if self.fact is None:
            return
        detail = self._is_set_expr(iter_node)
        if detail is not None:
            self.fact.set_iters.append(
                (
                    iter_node.lineno,
                    iter_node.col_offset,
                    f"iterates over {detail} (unordered)",
                )
            )

    def _visit_comprehension(self, generators: List[ast.comprehension]) -> None:
        for generator in generators:
            self._note_iteration(generator.iter)
            self.infer(generator.iter)
            for condition in generator.ifs:
                self.infer(condition)

    # -- SIM301/303/304/305 raw material -----------------------------------

    def _analyze_loop(self, loop: Union[ast.For, ast.While]) -> None:
        """Per-iteration cost facts for one ``for``/``while`` statement."""
        if self.fact is not None:
            _LoopBodyCollector(self, loop).run()

    # -- statement walk ----------------------------------------------------

    def run(self, fact: FunctionFact, body: List[ast.stmt]) -> FunctionFact:
        """Analyze ``body`` into ``fact`` (env seeded from parameters)."""
        self.fact = fact
        for param in fact.params:
            dim = classify_name(param)
            if dim is not None:
                self.env[param] = dim
        # Pre-scan for scoping: Python makes a name local to the whole
        # scope on *any* assignment, so mutation/shadow checks below need
        # the full set up front, not discovery order.
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    self.declared_globals.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    self.local_names.add(node.id)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.local_defs.add(node.name)
                    self.local_names.add(node.name)
                    self._local_def_nodes[node.name] = node
        self.local_names.update(fact.params)
        self.local_names -= self.declared_globals
        self._visit_block(body)
        if fact.qualname != "<module>":
            # Second, dedicated walk for the SIM5xx scale facts: the
            # container-op/pool-flow classification needs its own loop
            # and branch depth tracking (covering ``while`` bodies the
            # main walk's loop stack skips) and a local alias map.
            _ScaleCollector(self, fact, body).run()
        return fact

    def _is_container_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` builds a container object (SIM506)."""
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
        ):
            return True
        if isinstance(node, ast.Call):
            tail = dotted_name(node.func).rsplit(".", 1)[-1]
            return tail in _CONTAINER_CONSTRUCTORS
        return False

    def _assign_target(
        self,
        target: ast.expr,
        dim: Optional[Dim],
        is_set: bool,
        is_container: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dim
            self.set_vars[target.id] = is_set
            if is_container:
                self.container_locals.add(target.id)
            else:
                self.container_locals.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, None, False)

    def _visit_block(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            dim = self.infer(stmt.value)
            is_set = self._is_set_expr(stmt.value) is not None
            self._note_varying_assign(stmt.value, stmt.targets)
            self._note_temporal_assign(stmt.targets, stmt.value, stmt)
            is_container = self._is_container_expr(stmt.value)
            for target in stmt.targets:
                self._note_store_target(target, stmt)
                self._assign_target(target, dim, is_set, is_container)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value_dim = self.infer(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    declared = classify_name(stmt.target.id)
                    if not dims_compatible(declared, value_dim) and self.fact is not None:
                        self.fact.mixes.append(
                            (
                                stmt.lineno,
                                stmt.col_offset,
                                f"`{stmt.target.id}` ({declared}) assigned a "
                                f"`{value_dim}` value",
                            )
                        )
                self._note_varying_assign(stmt.value, [stmt.target])
                self._note_temporal_assign([stmt.target], stmt.value, stmt)
                self._note_store_target(stmt.target, stmt)
                self._assign_target(
                    stmt.target,
                    value_dim,
                    self._is_set_expr(stmt.value) is not None,
                    self._is_container_expr(stmt.value),
                )
        elif isinstance(stmt, ast.AugAssign):
            target_dim = self.infer(stmt.target) if isinstance(
                stmt.target, (ast.Name, ast.Attribute)
            ) else None
            value_dim = self.infer(stmt.value)
            self._note_store_target(stmt.target, stmt)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and not dims_compatible(
                target_dim, value_dim
            ):
                if self.fact is not None:
                    self.fact.mixes.append(
                        (
                            stmt.lineno,
                            stmt.col_offset,
                            f"augmented assignment mixes `{target_dim}` "
                            f"with `{value_dim}`",
                        )
                    )
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                prior = self.time_env.get(name, TimeInfo(ttype=UNKNOWN, quantity=None))
                value_info = self.typer.info(stmt.value)
                if isinstance(stmt.op, ast.Div):
                    self.time_env[name] = TimeInfo(FLOAT, prior.quantity)
                else:
                    self.time_env[name] = TimeInfo(
                        join_time(prior.ttype, value_info.ttype), prior.quantity
                    )
                if isinstance(stmt.op, ast.Sub):
                    self.time_proofs[name] = SUBTRACTION
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.infer(stmt.value)
        elif isinstance(stmt, ast.For):
            self._note_iteration(stmt.iter)
            self.infer(stmt.iter)
            self._assign_target(stmt.target, None, False)
            self._analyze_loop(stmt)
            loop_vars = {
                sub.id
                for sub in ast.walk(stmt.target)
                if isinstance(sub, ast.Name)
            }
            for name in loop_vars:
                self.time_env.pop(name, None)
                self.time_proofs.pop(name, None)
            self._loop_stack.append(loop_vars)
            try:
                self._visit_block(stmt.body)
            finally:
                self._loop_stack.pop()
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.infer(stmt.test)
            self._analyze_loop(stmt)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.infer(stmt.test)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, None, False)
            self._visit_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_block(stmt.body)
            for handler in stmt.handlers:
                self._visit_block(handler.body)
            self._visit_block(stmt.orelse)
            self._visit_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            # Building an error message on the way out is fine; only the
            # happy path must stay pure (SIM104) -- but the calls are
            # still recorded for the call graph.
            self._in_raise += 1
            if stmt.exc is not None:
                self.infer(stmt.exc)
            if stmt.cause is not None:
                self.infer(stmt.cause)
            self._in_raise -= 1
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self.infer(value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure's calls are attributed to the enclosing function:
            # an inner callback handed to the engine still runs on the
            # caller's path, so its facts belong to the caller.
            for name in arg_names(stmt.args):
                dim = classify_name(name)
                if dim is not None:
                    self.env[name] = dim
            self._visit_block(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            # Nested class in a function body: analyze field defaults.
            for inner in stmt.body:
                if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                    self._visit_stmt(inner)
        # Import/Global/Pass/etc. carry no expressions to analyze.


class _LoopBodyCollector:
    """Sub-walk of one loop body for the SIM3xx hot-path rules.

    Scope rules, chosen so every record describes *per-iteration* cost:

    - ``raise`` statements and ``except``-handler bodies are skipped --
      error paths may allocate and format freely;
    - nested ``for``/``while`` loops are not descended for reads (each
      loop gets its own collector at its own visit);
    - closure bodies (``lambda``/``def``) are recorded as allocations
      but not descended -- their reads run when called, not here;
    - ``orelse`` blocks run once after the loop and are excluded;
    - a ``while`` loop's *test* is included (re-evaluated per iteration).

    The **write** pre-scan is deliberately wider than the read walk: it
    covers the full body *including* nested loops plus the ``for``
    target (and any walrus in a ``while`` test), because a store
    anywhere inside the iteration invalidates hoisting a load out of it.
    """

    def __init__(
        self, analyzer: FunctionAnalyzer, loop: Union[ast.For, ast.While]
    ) -> None:
        self.analyzer = analyzer
        self.loop = loop
        self.allocs: List[Dict[str, Any]] = []
        self.attr_sites: Dict[str, List[List[int]]] = {}
        self.global_sites: Dict[Tuple[str, str], List[List[int]]] = {}
        self.tries: List[Dict[str, Any]] = []
        self.written: Set[str] = set()
        write_roots: List[ast.AST] = list(loop.body)
        if isinstance(loop, ast.For):
            write_roots.append(loop.target)
        else:
            write_roots.append(loop.test)
        for root in write_roots:
            for node in ast.walk(root):
                self._note_write(node)

    def _note_write(self, node: ast.AST) -> None:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            self.written.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            dotted = dotted_name(node)
            if dotted:
                self.written.add(dotted)

    # -- read walk ---------------------------------------------------------

    def run(self) -> None:
        if isinstance(self.loop, ast.While):
            self._visit(self.loop.test)
        for stmt in self.loop.body:
            self._visit(stmt)
        self._finish()

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Raise, ast.For, ast.AsyncFor, ast.While)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._alloc(node, "closure", f"nested function `{node.name}`")
            return
        if isinstance(node, ast.Lambda):
            self._alloc(node, "closure", "a `lambda` closure")
            return
        if isinstance(node, ast.Try):
            self._note_try(node)
            for stmt in [*node.body, *node.orelse, *node.finalbody]:
                self._visit(stmt)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            kinds = {
                ast.ListComp: "a list comprehension",
                ast.SetComp: "a set comprehension",
                ast.DictComp: "a dict comprehension",
                ast.GeneratorExp: "a generator expression",
            }
            self._alloc(node, "comprehension", kinds[type(node)])
            return
        if isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
            self._alloc(node, "literal", "a list literal")
        elif isinstance(node, ast.Set):
            self._alloc(node, "literal", "a set literal")
        elif isinstance(node, ast.Dict):
            self._alloc(node, "literal", "a dict literal")
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            if any(isinstance(elt, ast.Starred) for elt in node.elts):
                self._alloc(node, "literal", "a splatted (varying-size) tuple")
        elif isinstance(node, ast.Call):
            self._note_call(node)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                dotted = dotted_name(node)
                if dotted:
                    # The whole chain is one lookup site; don't recurse
                    # into its parts or they double-count.
                    self._note_chain(dotted, node)
                    return
            self._visit(node.value)
            return
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._note_name(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- recorders ---------------------------------------------------------

    @staticmethod
    def _span(node: ast.AST) -> List[int]:
        end_line = getattr(node, "end_lineno", None) or node.lineno  # type: ignore[attr-defined]
        end_col = getattr(node, "end_col_offset", None)
        if end_col is None:
            end_col = node.col_offset  # type: ignore[attr-defined]
        return [node.lineno, node.col_offset, end_line, end_col]  # type: ignore[attr-defined]

    def _alloc(
        self,
        node: ast.AST,
        what: str,
        detail: str,
        callee: str = "",
        origin: Optional[str] = None,
    ) -> None:
        self.allocs.append(
            {
                "line": node.lineno,  # type: ignore[attr-defined]
                "col": node.col_offset,  # type: ignore[attr-defined]
                "loop_line": self.loop.lineno,
                "what": what,
                "detail": detail,
                "callee": callee,
                "origin": origin,
            }
        )

    def _note_call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        if (
            tail in _CONTAINER_CONSTRUCTORS
            and dotted.split(".", 1)[0] not in self.analyzer.local_names
        ):
            self._alloc(node, "container", f"`{dotted}(...)`", callee=dotted)
        elif tail[:1].isupper():
            # CamelCase call: candidate class instantiation.  The rule
            # confirms against the project model before flagging.
            origin = self.analyzer.resolve_origin(node.func)
            if origin is not None:
                self._alloc(
                    node, "call", f"`{dotted}(...)`", callee=dotted, origin=origin
                )

    def _note_chain(self, dotted: str, node: ast.Attribute) -> None:
        head = dotted.split(".", 1)[0]
        analyzer = self.analyzer
        if head in analyzer.local_names:
            self.attr_sites.setdefault(dotted, []).append(self._span(node))
        elif head in analyzer.bindings or head in analyzer.module_symbols:
            self.global_sites.setdefault((dotted, "global"), []).append(
                self._span(node)
            )

    def _note_name(self, node: ast.Name) -> None:
        name = node.id
        analyzer = self.analyzer
        if name in analyzer.local_names:
            return
        if name in analyzer.bindings or name in analyzer.module_symbols:
            self.global_sites.setdefault((name, "global"), []).append(
                self._span(node)
            )
        elif name in builtins.__dict__:
            self.global_sites.setdefault((name, "builtin"), []).append(
                self._span(node)
            )

    def _note_try(self, node: ast.Try) -> None:
        types: List[str] = []
        reraises_only = True
        for handler in node.handlers:
            types.extend(self._handler_types(handler.type))
            if not (
                len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)
            ):
                reraises_only = False
        if node.handlers:
            self.tries.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "loop_line": self.loop.lineno,
                    "types": sorted(set(types)),
                    "reraises_only": reraises_only,
                }
            )

    @staticmethod
    def _handler_types(type_node: Optional[ast.expr]) -> List[str]:
        if type_node is None:
            return ["BaseException"]
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        out: List[str] = []
        for sub in nodes:
            dotted = dotted_name(sub)
            if dotted:
                out.append(dotted.rsplit(".", 1)[-1])
        return out

    # -- aggregation -------------------------------------------------------

    def _written_prefix(self, chain: str) -> bool:
        """Is the chain, or any prefix of it, stored to in the loop?"""
        parts = chain.split(".")
        return any(
            ".".join(parts[:i]) in self.written for i in range(1, len(parts) + 1)
        )

    def _pick_alias(self, chain: str) -> Tuple[str, bool]:
        """A local name the hoist fix can bind the chain to, plus
        whether it is collision-free in this scope."""
        parts = chain.split(".")
        tail_parts = parts[1:] if parts[0] == "self" and len(parts) > 1 else parts
        candidates = [tail_parts[-1], "_".join(tail_parts), "_" + tail_parts[-1]]
        analyzer = self.analyzer
        taken = (
            analyzer.local_names
            | set(analyzer.bindings)
            | set(analyzer.module_symbols)
            | set(builtins.__dict__)
        )
        for cand in dict.fromkeys(candidates):
            if (
                cand != parts[0]
                and cand.isidentifier()
                and not cand.startswith("__")
                and cand not in taken
            ):
                return cand, True
        return candidates[0], False

    def _finish(self) -> None:
        fact = self.analyzer.fact
        if fact is None:
            return
        fact.loop_allocs.extend(self.allocs)
        fact.loop_try_excepts.extend(self.tries)
        loop_line = self.loop.lineno
        loop_col = self.loop.col_offset
        used_aliases: Set[str] = set()

        def record(
            out: List[Dict[str, Any]],
            key: str,
            name: str,
            sites: List[List[int]],
            extra: Dict[str, Any],
        ) -> None:
            alias, alias_ok = self._pick_alias(name)
            if alias_ok and alias in used_aliases:
                alias_ok = False
            if alias_ok:
                used_aliases.add(alias)
            entry = {
                "loop_line": loop_line,
                "loop_col": loop_col,
                key: name,
                "count": len(sites),
                "sites": sorted(sites),
                "alias": alias,
                "alias_ok": alias_ok,
            }
            entry.update(extra)
            out.append(entry)

        for chain, sites in sorted(self.attr_sites.items()):
            if len(sites) >= 2 and not self._written_prefix(chain):
                record(fact.loop_attr_repeats, "chain", chain, sites, {})
        for (name, kind), sites in sorted(self.global_sites.items()):
            if len(sites) >= 2 and not self._written_prefix(name):
                record(
                    fact.loop_global_lookups, "name", name, sites, {"kind": kind}
                )


class _ScaleCollector:
    """Dedicated walk of one function body for the SIM5xx scale facts.

    Two fact families come out of it:

    - **container ops** (methods only): every touch of a 2-part
      ``self.<attr>`` chain -- or of a plain local *alias* of one
      (``pending = self._pending``) -- classified by effect (grow,
      shrink, member, rebuild, rebind, iterate, read, escape, other).
      The lifecycle layer (:mod:`repro.lint.lifecycle`) aggregates
      these per class to decide whether long-lived state can shrink.
    - **pool flows** (SIM503): paired-API acquires bound to a local
      (``pkt = factory.mint(...)``) matched against their releases
      (``factory.recycle(pkt)``, ``handle.cancel()``) and escapes
      (passed on, returned, stored, captured), judged per control-flow
      path by branch depth.

    Loop depth counts ``for`` *and* ``while`` bodies plus comprehension
    bodies (the main walk's loop stack is ``for``-only); branch depth
    counts ``if`` arms and ``except`` handlers, so a release that only
    happens on some of those paths reads as *conditional*.  ``raise``
    and closure bodies are skipped for ops -- error paths may shuffle
    state freely -- but closure bodies still count as escapes for any
    pooled handle they reference.
    """

    def __init__(
        self,
        analyzer: FunctionAnalyzer,
        fact: FunctionFact,
        body: List[ast.stmt],
    ) -> None:
        self.analyzer = analyzer
        self.fact = fact
        self.body = body
        self.is_method = fact.is_method and analyzer.class_name is not None
        #: local name -> the ``self`` attribute it aliases.
        self.aliases: Dict[str, str] = {}
        self.loop_depth = 0
        self.branch_depth = 0
        self._in_finally = False
        #: local name -> acquire record (var bound from a paired API).
        self.pool_vars: Dict[str, Dict[str, Any]] = {}
        #: local name -> [(branch_depth, in_finally, line)] per release.
        self.releases: Dict[str, List[Tuple[int, bool, int]]] = {}
        #: local name -> count of frame-escaping uses.
        self.uses: Dict[str, int] = {}

    def run(self) -> None:
        for stmt in self.body:
            self._stmt(stmt)
        self._finish()

    # -- shared helpers ----------------------------------------------------

    def _self_attr(self, node: Optional[ast.AST]) -> Optional[str]:
        """The class attribute ``node`` denotes (directly or through a
        local alias), restricted to 2-part ``self.X`` chains."""
        if not self.is_method or node is None:
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    def _op(
        self,
        attr: str,
        op: str,
        method: str,
        node: ast.AST,
        key_src: Optional[str] = None,
        func: Optional[ast.Attribute] = None,
    ) -> None:
        rec: Dict[str, Any] = {
            "attr": attr,
            "op": op,
            "method": method,
            "line": node.lineno,  # type: ignore[attr-defined]
            "col": node.col_offset,  # type: ignore[attr-defined]
            "in_loop": self.loop_depth > 0,
            "key_src": key_src,
            "func_span": None,
            "recv_src": None,
        }
        if func is not None and getattr(func, "end_lineno", None) is not None:
            rec["func_span"] = [
                func.lineno,
                func.col_offset,
                func.end_lineno,
                func.end_col_offset,
            ]
            rec["recv_src"] = self.analyzer._src(func.value)
        self.fact.container_ops.append(rec)

    def _use(self, var: str) -> None:
        self.uses[var] = self.uses.get(var, 0) + 1

    def _note_release(self, var: str, node: ast.AST) -> None:
        self.releases.setdefault(var, []).append(
            (self.branch_depth, self._in_finally, node.lineno)  # type: ignore[attr-defined]
        )

    def _release_by_arg(self, node: ast.Call) -> None:
        if node.args and isinstance(node.args[0], ast.Name):
            self._note_release(node.args[0].id, node)

    def _closure_uses(self, node: ast.AST) -> None:
        """Pooled handles referenced inside a closure body escape into
        it; nothing else in a closure is this walk's business."""
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in self.pool_vars
            ):
                self._use(sub.id)

    # -- statement walk ----------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._augassign(stmt)
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    attr = self._self_attr(target.value)
                    if attr is not None:
                        self._op(attr, "shrink", "delitem", target)
                        self._expr(target.slice)
                        continue
                if isinstance(target, ast.Name):
                    self.aliases.pop(target.id, None)
                else:
                    self._expr(target)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                attr = self._self_attr(stmt.value)
                if attr is not None:
                    self._op(attr, "escape", "return", stmt.value)
                elif (
                    isinstance(stmt.value, ast.Name)
                    and stmt.value.id in self.pool_vars
                ):
                    self._use(stmt.value.id)
                else:
                    self._expr(stmt.value)
        elif isinstance(stmt, ast.If):
            if not isinstance(stmt.test, ast.Name):
                self._expr(stmt.test)  # bare-Name truthiness is not a use
            self.branch_depth += 1
            try:
                for sub in stmt.body:
                    self._stmt(sub)
                for sub in stmt.orelse:
                    self._stmt(sub)
            finally:
                self.branch_depth -= 1
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            attr = self._self_attr(stmt.iter)
            if attr is not None:
                self._op(attr, "iterate", "for", stmt.iter)
            else:
                self._expr(stmt.iter)
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    self.aliases.pop(sub.id, None)
            self.loop_depth += 1
            try:
                for sub in stmt.body:
                    self._stmt(sub)
            finally:
                self.loop_depth -= 1
            for sub in stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, ast.While):
            self.loop_depth += 1
            try:
                self._expr(stmt.test)
                for sub in stmt.body:
                    self._stmt(sub)
            finally:
                self.loop_depth -= 1
            for sub in stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            self.branch_depth += 1
            try:
                for handler in stmt.handlers:
                    for sub in handler.body:
                        self._stmt(sub)
            finally:
                self.branch_depth -= 1
            for sub in stmt.orelse:
                self._stmt(sub)
            previous = self._in_finally
            self._in_finally = True
            try:
                for sub in stmt.finalbody:
                    self._stmt(sub)
            finally:
                self._in_finally = previous
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._closure_uses(stmt)
        elif isinstance(stmt, ast.Assert):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
        # Raise/Import/Global/Pass/Break/Continue/ClassDef: error paths
        # and declarations record nothing here.

    def _assign(self, targets: List[ast.expr], value: ast.expr) -> None:
        single = targets[0] if len(targets) == 1 else None
        if isinstance(single, ast.Name):
            if isinstance(value, ast.Attribute) and isinstance(
                value.ctx, ast.Load
            ):
                alias_of = self._self_attr(value)
                if alias_of is not None:
                    if single.id in self.pool_vars:
                        self._use(single.id)
                    self.aliases[single.id] = alias_of
                    return
            self.aliases.pop(single.id, None)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _POOL_ACQUIRE_ATTRS
            ):
                if single.id in self.pool_vars:
                    self._use(single.id)  # overwritten before release
                self.pool_vars[single.id] = {
                    "line": value.lineno,
                    "col": value.col_offset,
                    "attr": value.func.attr,
                    "depth": self.branch_depth,
                }
                self._walk_args(value, skip_first=False)
                return
        for target in targets:
            if isinstance(target, ast.Attribute):
                if (
                    self.is_method
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._op(target.attr, "rebind", "=", target)
            elif isinstance(target, ast.Subscript):
                attr = self._self_attr(target.value)
                if attr is not None:
                    self._op(
                        attr,
                        "grow",
                        "setitem",
                        target,
                        key_src=self.analyzer._src(target.slice),
                    )
                    self._expr(target.slice)
                else:
                    self._expr(target)
            elif isinstance(target, ast.Name):
                if target.id in self.pool_vars:
                    self._use(target.id)
                self.aliases.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.aliases.pop(element.id, None)
        self._expr(value)

    def _augassign(self, stmt: ast.AugAssign) -> None:
        target = stmt.target
        if not isinstance(stmt.op, ast.Add):
            return
        if isinstance(target, ast.Attribute):
            attr = self._self_attr(target)
            if attr is not None:
                self._op(attr, "grow", "iadd", target)
        elif isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._op(
                    attr,
                    "grow",
                    "setitem",
                    target,
                    key_src=self.analyzer._src(target.slice),
                )
                self._expr(target.slice)

    # -- expression walk ---------------------------------------------------

    def _expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    attr = self._self_attr(comparator)
                    if attr is not None:
                        self._op(attr, "member", "in", comparator)
            self._expr(node.left)
            for comparator in node.comparators:
                if self._self_attr(comparator) is None:
                    self._expr(comparator)
            return
        if isinstance(node, ast.Subscript):
            attr = self._self_attr(node.value)
            if attr is not None:
                self._op(attr, "read", "getitem", node)
                self._expr(node.slice)
                return
            self._expr(node.value)
            self._expr(node.slice)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            self.loop_depth += 1
            try:
                for generator in node.generators:
                    attr = self._self_attr(generator.iter)
                    if attr is not None:
                        self._op(attr, "iterate", "comprehension", generator.iter)
                    else:
                        self._expr(generator.iter)
                    for condition in generator.ifs:
                        self._expr(condition)
                if isinstance(node, ast.DictComp):
                    self._expr(node.key)
                    self._expr(node.value)
                else:
                    self._expr(node.elt)
            finally:
                self.loop_depth -= 1
            return
        if isinstance(node, ast.Lambda):
            self._closure_uses(node.body)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id in self.pool_vars:
                self._use(node.id)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                return  # `x.field` / `self.x`: a field read, not an escape
            self._expr(node.value)
            return
        if isinstance(node, ast.Starred):
            self._expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)

    def _walk_args(self, node: ast.Call, skip_first: bool) -> None:
        args = node.args[1:] if skip_first and node.args else node.args
        for arg in args:
            attr = self._self_attr(arg)
            if attr is not None:
                self._op(attr, "escape", "arg", arg)
            else:
                self._expr(arg)
        for keyword in node.keywords:
            attr = self._self_attr(keyword.value)
            if attr is not None:
                self._op(attr, "escape", "arg", keyword.value)
            else:
                self._expr(keyword.value)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            recv_attr = self._self_attr(func.value)
            method = func.attr
            if recv_attr is not None:
                if method in _GROW_METHODS:
                    key_src = None
                    if method == "setdefault" and node.args:
                        key_src = self.analyzer._src(node.args[0])
                    self._op(
                        recv_attr, "grow", method, node, key_src=key_src, func=func
                    )
                elif method in _SHRINK_METHODS:
                    self._op(recv_attr, "shrink", method, node, func=func)
                elif method in _LINEAR_METHODS:
                    self._op(recv_attr, "member", method, node, func=func)
                elif method == "copy":
                    self._op(recv_attr, "rebuild", "copy", node, func=func)
                elif method in _POOL_RELEASE_ATTRS:
                    self._release_by_arg(node)
                elif method in ("get", "keys", "values", "items"):
                    self._op(recv_attr, "read", method, node)
                else:
                    self._op(recv_attr, "other", method, node)
                self._walk_args(node, skip_first=method in _POOL_RELEASE_ATTRS)
                return
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in self.pool_vars
                and method in _POOL_RELEASE_ATTRS
            ):
                self._note_release(func.value.id, node)
                self._walk_args(node, skip_first=False)
                return
            # Module-qualified heap ops: heapq.heappush(self._pending, x).
            first_attr = self._self_attr(node.args[0]) if node.args else None
            if first_attr is not None and method in _HEAP_GROW_FUNCS:
                self._op(first_attr, "grow", method, node)
                self._walk_args(node, skip_first=True)
                return
            if first_attr is not None and method in (
                _HEAP_SHRINK_FUNCS | _REBUILD_CALLS
            ):
                kind = "shrink" if method in _HEAP_SHRINK_FUNCS else "rebuild"
                self._op(first_attr, kind, method, node)
                self._walk_args(node, skip_first=True)
                return
            if method in _POOL_RELEASE_ATTRS:
                self._release_by_arg(node)
                self._expr(func.value)
                self._walk_args(node, skip_first=True)
                return
            self._expr(func.value)
            self._walk_args(node, skip_first=False)
            return
        dotted = dotted_name(func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        first = node.args[0] if node.args else None
        first_attr = self._self_attr(first)
        if first_attr is not None and tail in _HEAP_GROW_FUNCS:
            self._op(first_attr, "grow", tail, node)
            self._walk_args(node, skip_first=True)
            return
        if first_attr is not None and tail in _HEAP_SHRINK_FUNCS:
            self._op(first_attr, "shrink", tail, node)
            self._walk_args(node, skip_first=True)
            return
        if first_attr is not None and tail in _REBUILD_CALLS:
            self._op(first_attr, "rebuild", tail, node)
            self._walk_args(node, skip_first=True)
            return
        if first_attr is not None and tail == "len":
            self._op(first_attr, "read", "len", node)
            return
        if tail in _POOL_RELEASE_ATTRS:
            self._release_by_arg(node)
            self._walk_args(node, skip_first=True)
            return
        if not isinstance(func, (ast.Name, ast.Attribute)):
            self._expr(func)
        self._walk_args(node, skip_first=False)

    # -- aggregation -------------------------------------------------------

    def _finish(self) -> None:
        for var, acquire in sorted(self.pool_vars.items()):
            releases = self.releases.get(var, [])
            if any(
                in_finally or depth <= acquire["depth"]
                for depth, in_finally, _ in releases
            ):
                released = "always"
            elif releases:
                released = "conditional"
            else:
                released = "never"
            self.fact.pool_flows.append(
                {
                    "var": var,
                    "line": acquire["line"],
                    "col": acquire["col"],
                    "attr": acquire["attr"],
                    "api": (
                        "event-handle"
                        if acquire["attr"].endswith("cancellable")
                        else "object-pool"
                    ),
                    "escapes": self.uses.get(var, 0) > 0,
                    "released": released,
                    "release_lines": sorted(line for _, _, line in releases),
                }
            )
