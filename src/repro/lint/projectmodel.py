"""The whole-program layer under the SIM1xx rules.

Per-file linting (SIM001-SIM006) sees one module at a time; the silent
failures that threaten the reproduction -- a microsecond quantity handed
to a nanosecond parameter two modules away, a set iteration whose order
leaks into the event heap -- only show up when every module of ``src/``
is parsed into one **project model**:

- a *symbol table* per module (top-level defs, classes, constants,
  ``__all__`` exports with their source locations);
- an *import graph* (local name -> absolute dotted origin, resolved
  through ``import``/``from``/relative forms);
- per-function *facts* extracted by :mod:`repro.lint.dataflow` (call
  sites with inferred argument dimensions, set iterations, I/O calls,
  additive-mixing findings).

Each file is summarised exactly once; the summary is JSON-serialisable
and cached by content hash (:mod:`repro.lint.cache`), so a warm
``repro-qos lint --project`` run re-parses **zero** files and the
project rules replay from the summaries alone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.lint.dataflow import (
    FactRecord,
    FunctionAnalyzer,
    FunctionFact,
    arg_names,
    dotted_name,
)
from repro.lint.pragmas import allowed_by_line, parse_pragmas

__all__ = ["ModuleSummary", "ProjectModel", "extract_summary"]

PathLike = Union[str, Path]


def module_name_for(path: Path) -> str:
    """Dotted module name, anchored at the outermost enclosing package.

    Walks up from the file while ``__init__.py`` exists, so
    ``src/repro/sim/units.py`` maps to ``repro.sim.units`` regardless of
    where the scan was rooted, and a loose fixture file maps to its
    stem.
    """
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.resolve().parent
    while (directory / "__init__.py").is_file() and directory.name:
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleSummary(FactRecord):
    """Everything the project rules need to know about one file."""

    path: str  # posix-style, as handed to the walker (stable in output)
    module: str  # dotted module name
    is_package: bool = False
    #: ``__all__`` entries: (name, line, col) of each string constant.
    exports: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Top-level name -> "function" | "class" | "other".
    symbols: Dict[str, str] = field(default_factory=dict)
    #: Per top-level class: ``{"line", "col", "has_slots", "decorated",
    #: "bases", "init_attrs", "insert_line", "indent"}`` -- what SIM302
    #: needs to flag a slot-less class and synthesise the ``__slots__``
    #: tuple from its ``__init__``'s ``self.x`` stores.
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Local name -> absolute dotted origin, from the import statements.
    bindings: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers / registry-style
    #: objects: name -> (line, col, kind), SIM202's candidate set.
    mutable_globals: Dict[str, Tuple[int, int, str]] = field(
        default_factory=dict
    )
    #: Modules star-imported (all their exports count as used).
    star_imports: List[str] = field(default_factory=list)
    #: Absolute dotted names referenced via attribute access.
    uses: List[str] = field(default_factory=list)
    #: Per-function facts, keyed by qualname ("<module>" for top level).
    functions: Dict[str, FunctionFact] = field(default_factory=dict)
    #: line -> rule names allowed by a suppression pragma comment.
    pragmas: Dict[int, List[str]] = field(default_factory=dict)
    #: Cached per-file (SIM0xx) findings, already pragma-filtered.
    file_violations: List[Dict[str, Any]] = field(default_factory=list)

    def allowed_on_line(self, line: int) -> frozenset:
        return frozenset(self.pragmas.get(line, ()))


def _resolve_relative(module_name: str, is_package: bool, level: int) -> str:
    """Base package for a level-``level`` relative import."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


def _collect_imports(
    tree: ast.Module, module_name: str, is_package: bool
) -> Tuple[Dict[str, str], List[str]]:
    bindings: Dict[str, str] = {}
    star_imports: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds the name `a`.
                    head = alias.name.split(".", 1)[0]
                    bindings.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                package = _resolve_relative(module_name, is_package, node.level)
                base = f"{package}.{node.module}" if node.module else package
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    star_imports.append(base)
                else:
                    local = alias.asname or alias.name
                    bindings[local] = f"{base}.{alias.name}"
    return bindings, star_imports


def _collect_symbols(tree: ast.Module) -> Dict[str, str]:
    symbols: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols[stmt.name] = "function"
        elif isinstance(stmt, ast.ClassDef):
            symbols[stmt.name] = "class"
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    symbols.setdefault(target.id, "other")
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                symbols.setdefault(stmt.target.id, "other")
    return symbols


#: ``__init__`` constructor tails that build a long-lived container,
#: mapped to the container kind the SIM5xx lifecycle rules reason about.
_CONTAINER_CTOR_KINDS = {
    "list": "list",
    "dict": "dict",
    "set": "set",
    "deque": "deque",
    "defaultdict": "dict",
    "OrderedDict": "dict",
    "Counter": "dict",
}


def _container_fact(
    value: ast.expr,
    bindings: Mapping[str, str],
    module_name: str,
    symbols: Mapping[str, str],
) -> Optional[Dict[str, Any]]:
    """Container kind/origin for one ``self.X = value`` in ``__init__``.

    Literal displays and builtin constructors yield a *kind* (``list``
    / ``dict`` / ``set`` / ``deque``); a CamelCase constructor call
    yields an *origin* -- the absolute dotted name of the constructed
    class, resolved through the import bindings -- so the lifecycle
    layer can synthesise ``self.X.method()`` dispatch edges.  A
    ``deque(maxlen=...)`` is *bounded*: it can never be unbounded
    growth, whatever its grow/shrink balance looks like.
    """
    span = [
        value.lineno,
        value.col_offset,
        value.end_lineno,
        value.end_col_offset,
    ]
    if isinstance(value, (ast.List, ast.ListComp)):
        empty = isinstance(value, ast.List) and not value.elts
        return {
            "kind": "list",
            "origin": None,
            "value_span": span,
            "bounded": False,
            "empty": empty,
        }
    if isinstance(value, (ast.Dict, ast.DictComp)):
        empty = isinstance(value, ast.Dict) and not value.keys
        return {
            "kind": "dict",
            "origin": None,
            "value_span": span,
            "bounded": False,
            "empty": empty,
        }
    if isinstance(value, (ast.Set, ast.SetComp)):
        return {
            "kind": "set",
            "origin": None,
            "value_span": span,
            "bounded": False,
            "empty": False,
        }
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if not dotted:
        return None
    tail = dotted.rsplit(".", 1)[-1]
    kind = _CONTAINER_CTOR_KINDS.get(tail)
    if kind is not None:
        bounded = False
        if tail == "deque":
            has_maxlen = any(
                kw.arg == "maxlen"
                and not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is None
                )
                for kw in value.keywords
            )
            bounded = has_maxlen or len(value.args) >= 2
        return {
            "kind": kind,
            "origin": None,
            "value_span": span,
            "bounded": bounded,
            "empty": not value.args and not value.keywords,
        }
    if not tail[:1].isupper():
        return None
    # CamelCase constructor: resolve to an absolute dotted origin.
    head, _, rest = dotted.partition(".")
    if head in bindings:
        origin = bindings[head] + ("." + rest if rest else "")
    elif head in symbols:
        origin = f"{module_name}.{dotted}" if module_name else dotted
    else:
        return None
    return {
        "kind": None,
        "origin": origin,
        "value_span": span,
        "bounded": False,
        "empty": False,
    }


def _collect_classes(
    tree: ast.Module,
    bindings: Optional[Mapping[str, str]] = None,
    module_name: str = "",
    symbols: Optional[Mapping[str, str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Layout facts per top-level class (SIM302's raw material), plus
    the ``containers`` map the SIM5xx lifecycle rules start from."""
    bindings = bindings or {}
    symbols = symbols or {}
    out: Dict[str, Dict[str, Any]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        has_slots = False
        init_attrs: List[str] = []
        containers: Dict[str, Dict[str, Any]] = {}
        for item in stmt.body:
            targets: List[ast.expr] = []
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in targets
            ):
                has_slots = True
            if (
                isinstance(item, ast.FunctionDef)
                and item.name == "__init__"
            ):
                seen: Dict[str, None] = {}
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        seen.setdefault(node.attr)
                init_attrs = list(seen)
                for node in ast.walk(item):
                    value: Optional[ast.expr] = None
                    target: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if (
                        value is None
                        or not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"
                    ):
                        continue
                    fact = _container_fact(value, bindings, module_name, symbols)
                    if fact is not None:
                        fact["line"] = node.lineno
                        containers.setdefault(target.attr, fact)
        # Where a synthesised `__slots__` line goes: before the first
        # statement after the docstring, at that statement's indent.
        body = stmt.body
        first = body[0]
        is_docstring = (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        )
        anchor = body[1] if is_docstring and len(body) > 1 else first
        if is_docstring and len(body) == 1:
            insert_line = (first.end_lineno or first.lineno) + 1
            indent = first.col_offset
        else:
            insert_line = anchor.lineno
            indent = anchor.col_offset
        out[stmt.name] = {
            "line": stmt.lineno,
            "col": stmt.col_offset,
            "has_slots": has_slots,
            "decorated": bool(stmt.decorator_list),
            "bases": [dotted_name(base) for base in stmt.bases],
            "init_attrs": init_attrs,
            "insert_line": insert_line,
            "indent": indent,
            "containers": containers,
        }
    return out


#: Constructor call names whose result is a mutable container.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _mutable_kind(value: ast.expr) -> Optional[str]:
    """Container kind when ``value`` builds a mutable object, else None.

    Registry-style classes are recognised by naming convention
    (``*Registry``/``*Cache``): a ``REGISTRY = MetricsRegistry()`` global
    get-or-created from workers diverges per process exactly like a bare
    dict would.
    """
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        tail = dotted_name(value.func).rsplit(".", 1)[-1]
        if tail in _MUTABLE_CONSTRUCTORS:
            return tail
        if tail.endswith(("Registry", "Cache")):
            return tail
    return None


def _collect_mutable_globals(
    tree: ast.Module,
) -> Dict[str, Tuple[int, int, str]]:
    out: Dict[str, Tuple[int, int, str]] = {}
    for stmt in tree.body:
        targets: List[ast.Name] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets = [stmt.target]
            value = stmt.value
        if not targets or value is None:
            continue
        kind = _mutable_kind(value)
        if kind is None:
            continue
        for target in targets:
            if target.id == "__all__":
                continue
            out.setdefault(target.id, (stmt.lineno, stmt.col_offset, kind))
    return out


def _collect_exports(tree: ast.Module) -> List[Tuple[str, int, int]]:
    exports: List[Tuple[str, int, int]] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for element in stmt.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    exports.append(
                        (element.value, element.lineno, element.col_offset)
                    )
    return exports


def _collect_uses(
    tree: ast.Module, bindings: Mapping[str, str], module_name: str
) -> List[str]:
    """Absolute dotted names referenced via attribute chains."""
    uses = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        dotted = dotted_name(node)
        if not dotted:
            continue
        head, _, rest = dotted.partition(".")
        origin = bindings.get(head)
        if origin is not None and rest:
            uses.add(f"{origin}.{rest}")
    return sorted(uses)


def extract_summary(source: str, path: str, *, tree: Optional[ast.Module] = None) -> ModuleSummary:
    """One parse of ``source`` into a :class:`ModuleSummary`.

    This is the only place in the project pass that looks at an AST;
    everything downstream (graphs, rules) works from the summary, which
    is what makes the content-hash cache sound.
    """
    posix_path = str(path).replace("\\", "/")
    if tree is None:
        tree = ast.parse(source, filename=posix_path)
    file_path = Path(path)
    module_name = module_name_for(file_path)
    is_package = file_path.stem == "__init__"

    bindings, star_imports = _collect_imports(tree, module_name, is_package)
    symbols = _collect_symbols(tree)
    summary = ModuleSummary(
        path=posix_path,
        module=module_name,
        is_package=is_package,
        exports=_collect_exports(tree),
        symbols=symbols,
        classes=_collect_classes(tree, bindings, module_name, symbols),
        bindings=bindings,
        mutable_globals=_collect_mutable_globals(tree),
        star_imports=star_imports,
        uses=_collect_uses(tree, bindings, module_name),
        pragmas={
            line: sorted(names)
            for line, names in allowed_by_line(parse_pragmas(source)).items()
        },
    )

    def analyze(
        qualname: str,
        body: List[ast.stmt],
        *,
        line: int,
        params: Optional[List[str]] = None,
        is_method: bool = False,
        class_name: Optional[str] = None,
    ) -> None:
        fact = FunctionFact(
            qualname=qualname,
            line=line,
            params=params or [],
            is_method=is_method,
        )
        analyzer = FunctionAnalyzer(
            bindings, module_name, symbols, class_name=class_name, source=source
        )
        summary.functions[qualname] = analyzer.run(fact, body)

    # Module level: everything except def/class bodies (class field
    # defaults are analyzed by the analyzer's ClassDef handling).
    top_level = [
        stmt
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    analyze("<module>", top_level, line=1)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze(
                stmt.name,
                stmt.body,
                line=stmt.lineno,
                params=arg_names(stmt.args),
            )
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyze(
                        f"{stmt.name}.{item.name}",
                        item.body,
                        line=item.lineno,
                        params=arg_names(item.args),
                        is_method=True,
                        class_name=stmt.name,
                    )
    return summary


class ProjectModel:
    """All module summaries plus cross-module resolution helpers."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.by_path: Dict[str, ModuleSummary] = {}

    def add(self, summary: ModuleSummary) -> None:
        self.modules[summary.module] = summary
        self.by_path[summary.path] = summary

    def summaries(self) -> List[ModuleSummary]:
        """All summaries, ordered by path for deterministic iteration."""
        return [self.by_path[path] for path in sorted(self.by_path)]

    def resolve_symbol(
        self, origin: str
    ) -> Optional[Tuple[ModuleSummary, str]]:
        """Split an absolute dotted origin into (defining module,
        symbol path), using the longest module-name prefix in the
        model.  ``repro.sim.units.us`` -> (units summary, "us")."""
        parts = origin.split(".")
        for cut in range(len(parts), 0, -1):
            module_name = ".".join(parts[:cut])
            summary = self.modules.get(module_name)
            if summary is not None:
                symbol = ".".join(parts[cut:])
                return summary, symbol
        return None

    def function_fact(
        self, origin: Optional[str]
    ) -> Optional[Tuple[ModuleSummary, FunctionFact]]:
        """The function (or class constructor) an origin refers to."""
        if origin is None:
            return None
        resolved = self.resolve_symbol(origin)
        if resolved is None:
            return None
        summary, symbol = resolved
        if not symbol:
            return None
        fact = summary.functions.get(symbol)
        if fact is not None:
            return summary, fact
        if summary.symbols.get(symbol) == "class":
            init = summary.functions.get(f"{symbol}.__init__")
            if init is not None:
                return summary, init
        return None
