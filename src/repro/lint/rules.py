"""The simlint rule registries and the built-in per-file SIM rules.

A rule is a small class with an ``id`` (``SIM001``), a ``name`` (the
pragma spelling, ``global-random``) and a :meth:`Rule.check` that walks
a parsed module and yields ``(node, message)`` pairs.  Register it with
the :func:`register_rule` decorator and it is automatically picked up by
the runner, the CLI and the fixture-driven test matrix.  Project rules
(:mod:`repro.lint.project_rules`) share :class:`BaseRule` and
:func:`register`, so ids and pragma names are unique across both.

Adding a rule therefore takes three steps:

1. subclass :class:`Rule` here (or in your own module) and decorate it
   with ``@register_rule``;
2. add a known-bad and a known-good fixture under
   ``tests/lint/fixtures/``;
3. drive ``src/`` clean (or annotate legitimate uses with
   ``# simlint: allow-<name>``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Collection, Dict, Iterable, Iterator, Tuple, Type, TypeVar

if TYPE_CHECKING:
    from repro.lint.project_rules import ProjectRule

__all__ = ["PROJECT_RULES", "RULES", "BaseRule", "Rule", "register", "register_rule"]

Finding = Tuple[ast.AST, str]


class BaseRule:
    """What every simlint rule declares, per-file or project-wide."""

    #: Stable identifier, ``SIM`` + three digits (SIM0xx per-file,
    #: SIM1xx-SIM5xx project rules).
    id: str = ""
    #: Pragma name: a ``simlint: allow-<name>`` comment suppresses this rule.
    #: (The lowercase id, e.g. ``allow-sim004``, always works as an alias.)
    name: str = ""
    #: One-line human description (shown by ``repro-qos lint --list-rules``).
    description: str = ""
    #: Longer why-this-matters text (``repro-qos lint --explain <RULE>``).
    rationale: str = ""
    #: Minimal embedded bad/good examples for ``--explain``, used when
    #: the fixture tree is not on disk (e.g. an installed package).
    example_bad: str = ""
    example_good: str = ""

    def allowed_by(self, pragma_names: Collection[str]) -> bool:
        """Whether a line's pragmas (``allow-<name>`` names) suppress
        this rule: its name or its lowercase id."""
        return self.name in pragma_names or self.id.lower() in pragma_names


class Rule(BaseRule):
    """Base class for per-file simlint rules."""

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        """Yield ``(node, message)`` for each violation in ``tree``.

        ``path`` is the posix-style path of the file being linted; rules
        that only apply to part of the tree (e.g. SIM006) scope on it.
        """
        raise NotImplementedError

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` at all (default: always)."""
        return True


#: The registries, keyed by rule id, populated at import time: per-file
#: rules here, project rules (:mod:`repro.lint.project_rules`) apart.
#: Ids and pragma names are unique across both.
RULES: Dict[str, Rule] = {}
PROJECT_RULES: Dict[str, "ProjectRule"] = {}

_AnyRule = TypeVar("_AnyRule", bound=BaseRule)


def register(registry: Dict[str, _AnyRule], cls: Type[_AnyRule]) -> Type[_AnyRule]:
    """Instantiate ``cls`` and add it to ``registry``, refusing an id or
    a pragma name either registry already holds."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    registered: Dict[str, BaseRule] = {**RULES, **PROJECT_RULES}
    if rule.id in registered:
        raise ValueError(f"duplicate rule id {rule.id}")
    if any(existing.name == rule.name for existing in registered.values()):
        raise ValueError(f"duplicate rule name {rule.name!r}")
    registry[rule.id] = rule
    return cls


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a per-file rule."""
    return register(RULES, cls)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, or '' when not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# SIM001: no stdlib random in library code
# ----------------------------------------------------------------------
@register_rule
class GlobalRandomRule(Rule):
    id = "SIM001"
    name = "global-random"
    description = (
        "stdlib `random` must not be imported in library code; use the "
        "seeded streams of repro.sim.rng so runs stay reproducible"
    )
    rationale = (
        "The process-global stdlib RNG is shared mutable state: any import "
        "that draws from it perturbs every later draw, so adding a module "
        "changes unrelated results.  repro.sim.rng derives independent "
        "named streams from the run seed instead."
    )
    example_bad = "import random\njitter = random.random()\n"
    example_good = (
        "from repro.sim.rng import local_stream\n"
        "rng = local_stream('jitter', seed)\njitter = rng.random()\n"
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield (
                            node,
                            "import of stdlib `random`; draw from "
                            "repro.sim.rng (RandomStreams / local_stream) instead",
                        )
                        break
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield (
                        node,
                        "import from stdlib `random`; draw from "
                        "repro.sim.rng (RandomStreams / local_stream) instead",
                    )


# ----------------------------------------------------------------------
# SIM002: no wall-clock reads in simulation code
# ----------------------------------------------------------------------
@register_rule
class WallClockRule(Rule):
    id = "SIM002"
    name = "wallclock"
    description = (
        "wall-clock reads (time.time & friends) are forbidden in simulation "
        "code; simulated time is engine.now (integer nanoseconds)"
    )
    rationale = (
        "Reading the host clock couples simulation results to machine "
        "speed and load; simulated time is engine.now, an integer "
        "nanosecond counter advanced only by the event loop."
    )
    example_bad = "import time\nstart = time.time()\n"
    example_good = "start_ns = engine.now\n"

    #: Module-level functions whose *call* reads the host clock.
    WALLCLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "date.today",
            "datetime.date.today",
        }
    )
    #: ``from time import <these>`` hides the call sites from the check
    #: above, so the import itself is flagged.
    WALLCLOCK_NAMES = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "clock_gettime",
        }
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in self.WALLCLOCK_CALLS:
                    yield (
                        node,
                        f"wall-clock read `{dotted}()`; simulation code must "
                        "use engine.now (or pragma a benchmark measurement)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    hidden = sorted(
                        alias.name
                        for alias in node.names
                        if alias.name in self.WALLCLOCK_NAMES
                    )
                    if hidden:
                        yield (
                            node,
                            "importing wall-clock functions by name "
                            f"({', '.join(hidden)}) hides the call sites; "
                            "use `import time` and call via the module",
                        )


# ----------------------------------------------------------------------
# SIM003: no float equality on deadlines / timestamps
# ----------------------------------------------------------------------
@register_rule
class FloatDeadlineEqRule(Rule):
    id = "SIM003"
    name = "float-deadline-eq"
    description = (
        "float ==/!= on deadlines or timestamps is fragile; keep time in "
        "integer nanoseconds (sim/units) or compare with a tolerance"
    )
    rationale = (
        "Two floats that 'should' be equal rarely are after independent "
        "arithmetic; a deadline comparison that ties on one platform and "
        "misses by 1 ULP on another reorders packets.  Integer "
        "nanoseconds make equality exact."
    )
    example_bad = "due = deadline == size / bw\n"
    example_good = "due = deadline_ns == serialization_ns(size_bytes, rate)\n"

    #: Terminal identifiers treated as time-valued.
    TIME_SUFFIXES = ("_ns", "_time", "_deadline")
    TIME_NAMES = frozenset({"deadline", "deadlines", "timestamp", "now", "eligible"})

    def _is_time_named(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, ast.Name):
            ident = node.id
        else:
            return False
        ident_lower = ident.lower()
        return ident_lower in self.TIME_NAMES or ident_lower.endswith(self.TIME_SUFFIXES)

    def _is_floaty(self, node: ast.AST) -> bool:
        """Expressions that produce floats: float literals, true
        division, float()/round(x, n) calls -- recursing through
        arithmetic so `a + b / c` counts."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._is_floaty(node.left) or self._is_floaty(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand)
        if isinstance(node, ast.Call):
            return _dotted(node.func) == "float"
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    time_named = self._is_time_named(left) or self._is_time_named(right)
                    floaty = self._is_floaty(left) or self._is_floaty(right)
                    if time_named and floaty:
                        yield (
                            node,
                            "float equality on a deadline/timestamp; use "
                            "integer nanoseconds (repro.sim.units) or an "
                            "explicit tolerance",
                        )
                        break
                left = right


# ----------------------------------------------------------------------
# SIM004: no bare assert for runtime invariants
# ----------------------------------------------------------------------
@register_rule
class BareAssertRule(Rule):
    id = "SIM004"
    name = "bare-assert"
    description = (
        "bare `assert` disappears under python -O; runtime invariants must "
        "use repro.core.invariants.invariant()"
    )
    rationale = (
        "python -O strips assert statements from the bytecode, so a "
        "Lemma 1 invariant guarded by assert simply vanishes in optimized "
        "runs.  invariant() is a real call that survives -O and raises a "
        "typed InvariantViolation."
    )
    example_bad = "assert credits >= 0, 'negative credits'\n"
    example_good = (
        "from repro.core.invariants import invariant\n"
        "invariant(credits >= 0, 'negative credits: %d', credits)\n"
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                yield (
                    node,
                    "bare `assert` is stripped by python -O; call "
                    "repro.core.invariants.invariant(cond, msg) so the "
                    "check survives optimization",
                )


# ----------------------------------------------------------------------
# SIM005: no mutable default arguments
# ----------------------------------------------------------------------
@register_rule
class MutableDefaultRule(Rule):
    id = "SIM005"
    name = "mutable-default"
    description = "mutable default arguments are shared across calls"
    rationale = (
        "A mutable default is evaluated once at def time and shared by "
        "every call; state leaks between calls (and between simulation "
        "runs in one process)."
    )
    example_bad = "def run(events=[]):\n    events.append(1)\n"
    example_good = "def run(events=None):\n    events = [] if events is None else events\n"

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "collections.deque", "deque"})
    MUTABLE_NODES = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, self.MUTABLE_NODES):
            return True
        if isinstance(default, ast.Call):
            return _dotted(default.func) in self.MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: Iterable[ast.AST] = [
                d
                for d in [*node.args.defaults, *node.args.kw_defaults]
                if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield (
                        default,
                        f"mutable default argument in `{node.name}()`; "
                        "default to None and construct inside the body",
                    )


# ----------------------------------------------------------------------
# SIM006: hot-path classes must declare __slots__
# ----------------------------------------------------------------------
@register_rule
class SlotsRule(Rule):
    id = "SIM006"
    name = "missing-slots"
    description = (
        "hot-path queue/packet classes must declare __slots__ (per-packet "
        "dict allocation dominates otherwise)"
    )
    rationale = (
        "Per-packet attribute dicts dominated the allocation profile; "
        "__slots__ on queue/packet classes removes the dict and makes "
        "attribute access a fixed-offset load."
    )
    example_bad = "class Packet:\n    def __init__(self):\n        self.size_bytes = 0\n"
    example_good = "class Packet:\n    __slots__ = ('size_bytes',)\n"

    #: Path fragments (posix style) whose classes are considered hot-path.
    HOT_PATH_PATTERNS = ("core/queues/", "network/packet.py")
    #: Base-class suffixes exempt from the requirement.
    EXEMPT_BASE_SUFFIXES = ("Protocol", "Exception", "Error", "Warning", "Enum")

    def applies_to(self, path: str) -> bool:
        return any(pattern in path for pattern in self.HOT_PATH_PATTERNS)

    def _is_exempt(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if "dataclass" in _dotted(target):
                return True
        for base in node.bases:
            dotted = _dotted(base)
            if dotted.endswith(self.EXEMPT_BASE_SUFFIXES):
                return True
        return False

    def _declares_slots(self, node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._is_exempt(node) or self._declares_slots(node):
                continue
            yield (
                node,
                f"hot-path class `{node.name}` does not declare __slots__",
            )
