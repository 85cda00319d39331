"""``repro-qos lint``: run simlint, the simulator-specific static analysis
(:mod:`repro.lint`; rules, pragmas and workflow in docs/SIMLINT.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def register(sub) -> None:
    parser = sub.add_parser("lint", help="run simlint (simulator-specific static analysis)")
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text; sarif emits SARIF 2.1.0 for "
        "code-scanning dashboards)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids or prefixes to run (default: all), "
        "e.g. SIM001,SIM104 or SIM4 for the whole temporal family",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids or prefixes to skip, subtracted "
        "from the --select set (or from all rules), e.g. SIM103,SIM3",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the registered rules and exit"
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="build the whole-program model and run the cross-module "
        "SIM1xx rules in addition to the per-file rules",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="incremental cache directory for --project runs (a warm run "
        "over an unchanged tree re-parses zero files)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a rule's description, rationale, and a minimal "
        "bad/good example, then exit (e.g. --explain SIM101)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply the machine-applicable fixes some findings carry "
        "(lift submitted lambdas, hash() -> stable_hash()), then re-lint",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diffs instead of writing files",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress (but count) the findings recorded in FILE; the "
        "gate fails only on findings not in the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="snapshot the current findings into the baseline file "
        "(--baseline FILE, default lint-baseline.json) and exit 0",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PSTATS",
        help="with --project: rank SIM3xx findings by the cumulative "
        "time in this cProfile/pstats dump (see `repro-qos profile "
        "run`); top-decile findings are flagged hot:, unmeasured ones "
        "demoted to notes and excluded from the exit gate",
    )
    parser.add_argument(
        "--memprofile",
        default=None,
        metavar="JSON",
        help="with --project: rank SIM5xx findings by the bytes "
        "measured in this tracemalloc dump (see `repro-qos profile "
        "mem`); top-decile findings are flagged hot:, unmeasured ones "
        "demoted to notes and excluded from the exit gate",
    )
    parser.set_defaults(handler=command)


def command(args: argparse.Namespace):
    # A missing path, an unknown --select id or an unreadable profile dump
    # only surfaces while linting, so the analysis sits before the yield.
    from repro.lint import PROJECT_RULES, RULES, Baseline, apply_fixes, lint_paths, lint_project

    if args.explain:
        rules = {**RULES, **PROJECT_RULES}
        wanted = args.explain.strip()
        rule = rules.get(wanted.upper()) or next(
            (r for r in rules.values() if r.name == wanted.lower()), None
        )
        if rule is None:
            raise ValueError(f"unknown rule {args.explain!r} (known: {', '.join(sorted(rules))})")
        yield
        return explain(rule)
    if args.list_rules:
        yield
        for registry in (RULES, PROJECT_RULES):
            for rule_id in sorted(registry):
                rule = registry[rule_id]
                print(f"{rule.id}  allow-{rule.name:<28} {rule.description}")
        return 0
    for flag, family in (("profile", "SIM3xx"), ("memprofile", "SIM5xx")):
        if getattr(args, flag) and not args.project:
            raise ValueError(
                f"--{flag} requires --project (the {family} rules it ranks are project rules)"
            )
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None

    def run_lint():
        if args.project:
            return lint_project(
                args.paths,
                cache_dir=args.cache_dir,
                select=select,
                ignore=ignore,
                profile=args.profile,
                memprofile=args.memprofile,
            )
        return lint_paths(args.paths, select=select, ignore=ignore), None

    violations, cache_stats = run_lint()
    fix_report = None
    if args.fix:
        fix_report = apply_fixes(violations, dry_run=args.dry_run)
        if fix_report.files_changed and not args.dry_run:
            # The gate and the output must describe the *fixed* tree.
            violations, cache_stats = run_lint()
    baselined = []
    if args.update_baseline:
        baseline_path = args.baseline or "lint-baseline.json"
        Baseline.from_violations(violations).save(baseline_path)
        print(
            f"repro-qos lint: baselined {len(violations)} finding(s) "
            f"into {baseline_path}",
            file=sys.stderr,
        )
        violations, baselined = [], violations
    elif args.baseline:
        violations, baselined = Baseline.load(args.baseline).partition(violations)
    yield
    print_report(args, violations, baselined, fix_report, cache_stats)
    # Cold findings are profile-demoted notes: reported, but they never
    # fail the gate -- the whole point of ranking by measured cost.
    gating = [v for v in violations if (v.profile or {}).get("bucket") != "cold"]
    return 1 if gating else 0


def _fixture_examples(rule_id: str):
    """(label, text) pairs for a rule's bad/good fixtures, if the
    fixture tree is on disk (repo checkouts; not installed packages)."""
    candidates = [
        Path("tests/lint/fixtures"),
        Path(__file__).resolve().parents[3] / "tests" / "lint" / "fixtures",
    ]
    fixtures = next((c for c in candidates if c.is_dir()), None)
    if fixtures is None:
        return []
    stem = rule_id.lower()
    examples = []
    for kind in ("bad", "good"):
        for match in sorted(fixtures.glob(f"**/{kind}/**/{stem}_*")) + sorted(
            fixtures.glob(f"**/{kind}/{stem}_*")
        ):
            files = (
                sorted(p for p in match.rglob("*.py"))
                if match.is_dir()
                else [match]
            )
            for file_path in files:
                try:
                    text = file_path.read_text(encoding="utf-8")
                except OSError:
                    continue
                examples.append((kind, str(file_path), text))
            break  # one fixture (file or tree) per kind is plenty
    return examples


def explain(rule) -> int:
    print(f"{rule.id} [{rule.name}]  (suppress: # simlint: allow-{rule.name})")
    print(f"  {rule.description}")
    if rule.rationale:
        print(f"\nRationale:\n  {rule.rationale}")
    examples = _fixture_examples(rule.id)
    if examples:
        for kind, path, text in examples:
            print(f"\n{kind.capitalize()} example ({path}):")
            for line in text.rstrip().splitlines():
                print(f"  {line}")
    else:
        for kind, text in (("Bad", rule.example_bad), ("Good", rule.example_good)):
            if text:
                print(f"\n{kind} example:")
                for line in text.rstrip().splitlines():
                    print(f"  {line}")
    return 0


def print_report(args: argparse.Namespace, violations, baselined, fix_report, cache_stats) -> None:
    if args.format == "sarif":
        from repro.lint import to_sarif

        print(json.dumps(to_sarif(violations, suppressed=baselined), indent=2))
    elif args.format == "json":
        payload = {
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
        }
        if args.baseline or args.update_baseline:
            payload["baselined"] = len(baselined)
        if fix_report is not None:
            payload["fixes"] = fix_report.to_dict()
        if cache_stats is not None:
            cache_stats = dict(cache_stats)
            for key in ("profile", "memprofile"):
                ranked = cache_stats.pop(key, None)
                if ranked is not None:
                    payload[key] = ranked
            payload["cache"] = cache_stats
        print(json.dumps(payload, indent=2))
    else:
        _print_text(args, violations, baselined, fix_report, cache_stats)


def _print_text(args: argparse.Namespace, violations, baselined, fix_report, cache_stats) -> None:
    if fix_report is not None:
        if args.dry_run:
            for path in fix_report.files_changed:
                print(fix_report.diffs[path], end="")
        for note in fix_report.notes:
            verb = "would fix" if args.dry_run else "fixed"
            print(f"{verb} {note}", file=sys.stderr)
    for violation in violations:
        print(violation.format())
    if violations:
        suffix = f" ({len(baselined)} baselined)" if baselined else ""
        print(f"\n{len(violations)} violation(s) found{suffix}")
    elif baselined:
        print(f"no new violations ({len(baselined)} baselined)", file=sys.stderr)
    if cache_stats is None:
        return
    print(
        f"[project: {cache_stats['files']} files, "
        f"{cache_stats['hits']} cached, "
        f"{cache_stats['misses']} parsed]",
        file=sys.stderr,
    )
    for key, total, unit in (
        ("profile", "total_seconds", "s"),
        ("memprofile", "total_bytes", " bytes"),
    ):
        ranked = cache_stats.get(key)
        if ranked is not None:
            print(
                f"[{key}: {ranked[total]}{unit} total, "
                f"{ranked['matched']}/{ranked['ranked']} "
                f"findings measured: {ranked['hot']} hot, "
                f"{ranked['warm']} warm, "
                f"{ranked['cold']} cold]",
                file=sys.stderr,
            )
