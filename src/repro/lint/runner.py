"""Walk files, run the rules, apply pragmas, collect violations."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.lint.pragmas import allowed_by_line, parse_pragmas
from repro.lint.rules import RULES, Rule
from repro.lint.violations import Violation

__all__ = [
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
]

PathLike = Union[str, Path]

#: Pseudo-rule id for problems with the lint run itself (unparseable
#: file, pragma naming an unknown rule).  Not suppressible.
META_RULE_ID = "SIM000"

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def _expand_rule_tokens(
    tokens: Iterable[str], known: "frozenset[str]"
) -> "set[str]":
    """Expand ``--select``/``--ignore`` tokens into rule ids.

    A token is a full id (``SIM104``) or a prefix (``SIM4`` selects the
    whole temporal family).  A token matching nothing is a usage error,
    not a silent no-op -- raise :class:`KeyError` so the CLI exits 2.
    """
    expanded: set = set()
    for token in tokens:
        wanted = token.strip().upper()
        if not wanted:
            continue
        matches = {
            rule_id
            for rule_id in known
            if rule_id == wanted or rule_id.startswith(wanted)
        }
        if not matches:
            raise KeyError(
                f"unknown rule or prefix {token!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        expanded |= matches
    return expanded


def resolve_rule_filter(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Optional["frozenset[str]"]:
    """The effective rule-id set: ``(select or all) - ignore``.

    ``None`` means "no filter" (run everything); tokens may be full ids
    or prefixes, resolved against both the per-file and the project
    registries so ``--select SIM4`` works in either mode.
    """
    from repro.lint.project_rules import PROJECT_RULES

    if select is None and ignore is None:
        return None
    known = frozenset(RULES) | frozenset(PROJECT_RULES)
    effective = (
        _expand_rule_tokens(select, known) if select is not None else set(known)
    )
    if ignore is not None:
        effective -= _expand_rule_tokens(ignore, known)
    return frozenset(effective)


def _select_rules(effective: Optional["frozenset[str]"]) -> List[Rule]:
    if effective is None:
        return [RULES[rule_id] for rule_id in sorted(RULES)]
    return [RULES[rule_id] for rule_id in sorted(effective) if rule_id in RULES]


def _known_pragma_names() -> "frozenset[str]":
    """Every spelling a ``simlint: allow-<...>`` pragma may use: rule
    names plus lowercase rule ids, for both per-file and project rules."""
    from repro.lint.project_rules import PROJECT_RULES

    names = set()
    for registry in (RULES, PROJECT_RULES):
        for rule_id, rule in registry.items():
            names.add(rule.name)
            names.add(rule_id.lower())
    return frozenset(names)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one module given as text.  ``path`` is used for reporting and
    for path-scoped rules (e.g. SIM006).  ``select``/``ignore`` take rule
    ids or prefixes (``SIM4``); the effective set is
    ``(select or all) - ignore``."""
    posix_path = str(path).replace("\\", "/")
    try:
        tree = ast.parse(source, filename=posix_path)
    except SyntaxError as exc:
        return [
            Violation(
                path=posix_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=META_RULE_ID,
                rule_name="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]

    effective = resolve_rule_filter(select, ignore)
    pragmas = parse_pragmas(source)
    allowed = allowed_by_line(pragmas)
    rule_names = _known_pragma_names()

    violations: List[Violation] = []
    # A pragma naming an unknown rule would silently fail to suppress
    # anything -- surface the typo instead of honouring it.
    for pragma in pragmas:
        if not pragma.valid or pragma.name not in rule_names:
            detail = pragma.name or "<empty>"
            violations.append(
                Violation(
                    path=posix_path,
                    line=pragma.line,
                    col=0,
                    rule_id=META_RULE_ID,
                    rule_name="unknown-pragma",
                    message=(
                        f"pragma directive {detail!r} does not name a known "
                        f"rule (expected allow-<rule>, rules: "
                        f"{', '.join(sorted(rule_names))})"
                    ),
                )
            )

    for rule in _select_rules(effective):
        if not rule.applies_to(posix_path):
            continue
        for node, message in rule.check(tree, posix_path):
            line = getattr(node, "lineno", 1)
            if rule.allowed_by(allowed.get(line, ())):
                continue
            violations.append(
                Violation(
                    path=posix_path,
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    rule_id=rule.id,
                    rule_name=rule.name,
                    message=message,
                )
            )
    return sorted(violations)


def lint_file(
    path: PathLike,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk."""
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    return lint_source(source, str(file_path), select=select, ignore=ignore)


def _is_skipped(candidate: Path, root: Path) -> bool:
    """Whether ``candidate`` lies under a skipped or hidden directory.

    Only the path *below* ``root`` is inspected, so linting a tree that
    itself lives under a hidden directory (``~/.local/checkout/src``)
    still works.
    """
    relative_parts = candidate.relative_to(root).parts[:-1]
    return any(
        part in SKIP_DIRS or part.startswith(".") for part in relative_parts
    )


def iter_python_files(paths: Sequence[PathLike]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint.

    Files under ``__pycache__``, VCS/tool state, or any hidden directory
    are skipped, and each directory's files are yielded in sorted order,
    so lint output and exit codes are deterministic across platforms and
    filesystems.
    """
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            for candidate in sorted(entry_path.rglob("*.py")):
                if not _is_skipped(candidate, entry_path):
                    yield candidate
        elif entry_path.suffix == ".py" or entry_path.is_file():
            yield entry_path
        else:
            raise FileNotFoundError(f"no such file or directory: {entry_path}")


def lint_paths(
    paths: Sequence[PathLike],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint every python file under ``paths`` (files or directories)."""
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, select=select, ignore=ignore))
    return sorted(violations)


def lint_project(
    paths: Sequence[PathLike],
    *,
    cache_dir: Optional[PathLike] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    profile: Optional[PathLike] = None,
    memprofile: Optional[PathLike] = None,
) -> Tuple[List[Violation], Dict[str, Any]]:
    """Whole-program lint: per-file SIM0xx rules *plus* the
    interprocedural SIM1xx rules over the project model.

    ``select``/``ignore`` take rule ids or prefixes (``SIM4``); the
    effective set is ``(select or all) - ignore`` and gates both the
    per-file and the project rules (and therefore text/JSON/SARIF
    output and the exit code).

    Returns ``(violations, stats)`` where ``stats`` reports how the
    incremental cache behaved: ``files`` scanned, cache ``hits``, cache
    ``misses`` (== files parsed this run).  With ``cache_dir`` set, a
    warm run over an unchanged tree re-parses zero files.

    ``profile`` names a cProfile/pstats dump; when given, SIM3xx and
    SIM4xx findings are ranked by measured cumulative time (hot/warm/
    cold buckets on :attr:`Violation.profile`) and ``stats`` gains a
    ``"profile"`` block.  ``memprofile`` names a ``repro-qos profile
    mem`` tracemalloc dump and ranks the SIM5xx family by measured
    bytes the same way (a ``"memprofile"`` stats block); both go
    through :func:`~repro.lint.hotpath.annotate_profile`.  Each dump is
    read once, for its contents and its digest.  Raises
    :class:`FileNotFoundError` / :class:`ValueError` for a missing /
    unreadable dump.
    """
    from repro.lint.cache import SummaryCache, hash_source, rules_digest
    from repro.lint.callgraph import CallGraph
    from repro.lint.hotpath import MemProfileIndex, ProfileIndex, annotate_profile
    from repro.lint.project_rules import PROJECT_RULES
    from repro.lint.projectmodel import ModuleSummary, ProjectModel, extract_summary

    selected = resolve_rule_filter(select, ignore)
    # Load before the scan so a bad --profile/--memprofile fails fast.
    rankings = [
        (key, index_type.load(dump))
        for key, index_type, dump in (
            ("profile", ProfileIndex, profile),
            ("memprofile", MemProfileIndex, memprofile),
        )
        if dump is not None
    ]
    cache = SummaryCache(cache_dir)
    model = ProjectModel()
    live_keys = set()
    files = 0
    # Cached entries embed the producing rule set's findings; folding
    # the registry digest into every key makes "new rule registered"
    # indistinguishable from "file edited" -- a miss, then a re-lint.
    # The profile content digest rides along for the same reason: the
    # hot/warm/cold ranking a future cached-findings layer might embed
    # depends on the dump's bytes, so a different dump must miss.
    ruleset = "\x00".join([rules_digest(), *(index.digest for _, index in rankings)])
    for file_path in iter_python_files(paths):
        files += 1
        source = file_path.read_text(encoding="utf-8")
        posix_path = str(file_path).replace("\\", "/")
        key = hash_source(posix_path + "\x00" + ruleset + "\x00" + source)
        live_keys.add(key)
        cached = cache.get(key)
        if cached is not None:
            summary = ModuleSummary.from_dict(cached)
        else:
            file_violations = lint_source(source, posix_path)
            try:
                summary = extract_summary(source, posix_path)
            except SyntaxError:
                # lint_source already reported SIM000 parse-error; the
                # project rules see an empty module.
                summary = ModuleSummary(
                    path=posix_path, module=Path(posix_path).stem
                )
            summary.file_violations = [v.to_dict() for v in file_violations]
            cache.put(key, summary.to_dict())
        model.add(summary)
    cache.prune(live_keys)
    cache.save()

    violations: List[Violation] = []
    for summary in model.summaries():
        for payload in summary.file_violations:
            violation = Violation.from_dict(payload)
            if selected is None or violation.rule_id in selected:
                violations.append(violation)

    graph = CallGraph(model)
    for rule_id in sorted(PROJECT_RULES):
        if selected is not None and rule_id not in selected:
            continue
        rule = PROJECT_RULES[rule_id]
        for violation in rule.check(model, graph):
            origin = model.by_path.get(violation.path)
            if origin is None or not rule.allowed_by(
                origin.allowed_on_line(violation.line)
            ):
                violations.append(violation)

    stats: Dict[str, Any] = {
        "files": files,
        "hits": cache.hits,
        "misses": cache.misses,
    }
    ordered = sorted(violations)
    for key, index in rankings:
        ordered, stats[key] = annotate_profile(ordered, model, index)
    return ordered, stats
