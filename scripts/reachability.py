#!/usr/bin/env python
"""Which functions under ``src/repro`` (``lint/`` aside) run on no CLI path.

Usage::

    PYTHONPATH=src python scripts/reachability.py      # ~6 minutes on 2 cores

Lists every ``def`` with :mod:`ast`, records the ``(co_filename,
co_firstlineno)`` of every call with :func:`sys.setprofile` (a decorated
function matches on its decorator line or its ``def`` line), drives the paths
below in this process through :func:`repro.cli.main`, and prints the
functions none of them ran, per module.  A line is counted once: a function
nested in an unreached one adds none.  The paths: the EXPERIMENTS.md
generator at ``tiny`` with ``--jobs 2`` and a cache directory (forked pool
workers hand their calls back on exit), ``run`` with every sink on, ``trace
blame|export``, ``metrics`` (one snapshot, ``--schema``, two = diff),
``figure``, ``claims``, ``replicate``, ``cost``, ``utilization``, ``list``,
``profile run|mem`` (cProfile replaces the hook while it runs), ``lint
--project src/`` (which calls into ``lint/``, whose own defs are not listed)
and CI's two heavy examples: every subcommand runs at least once.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pickle
import runpy
import sys
import tempfile
from multiprocessing.util import Finalize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def functions(root: Path = SRC) -> dict:
    """``(path, def line) -> (module, qualname, ast node)`` for every def."""
    found: dict = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[path, child.lineno] = (module, prefix + child.name, child)
                walk(child, path, module, f"{prefix}{child.name}.")
            else:
                name = child.name + "." if isinstance(child, ast.ClassDef) else ""
                walk(child, path, module, prefix + name)

    for path in sorted(root.rglob("*.py")):
        if "lint" not in path.relative_to(root).parts:
            walk(ast.parse(path.read_text()), str(path), str(path.relative_to(root.parent)), "")
    return found


def record(steps, scratch: str) -> set:
    """Run each step under the hook; the ``(resolved file, line)`` pairs called.
    A pool worker forked meanwhile inherits the hook and leaves its pairs in
    ``scratch`` on exit."""
    seen, recording = set(), [True]

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump():
        Path(scratch, f"seen.{os.getpid()}").write_bytes(pickle.dumps(seen))

    # The fork hook cannot be unregistered: it goes inert when recording ends.
    os.register_at_fork(after_in_child=lambda: recording and Finalize(None, dump, exitpriority=0))
    try:
        for step in steps:
            sys.setprofile(hook)  # again after each step: cProfile unsets it
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                step()
    finally:
        sys.setprofile(None)
        recording.clear()
    for dump_file in Path(scratch).glob("seen.*"):
        seen |= pickle.loads(dump_file.read_bytes())
    return {(os.path.realpath(f), line) for f, line in seen}


def unreached(seen: set, root: Path = SRC) -> list:
    """``(module, qualname, line, counted lines)`` of each def no call entered;
    a def nested in an unreached one counts no lines of its own."""
    out, dead = [], set()
    for (path, line), (module, name, node) in sorted(functions(root).items()):
        starts = [line] + [d.lineno for d in node.decorator_list[:1]]
        if not any((path, start) in seen for start in starts):
            lines = node.end_lineno - line + 1
            out.append((module, name, line, 0 if (path, name.rpartition(".")[0]) in dead else lines))
            dead.add((path, name))
    return out


def cli(*argv: str):
    from repro.cli import main

    return lambda: main(list(argv))


def script(path: str, *argv: str):
    def step():
        sys.argv = [path, *argv]
        with contextlib.suppress(SystemExit):
            runpy.run_path(str(ROOT / path), run_name="__main__")

    return step


def paper_paths(d: str) -> list:
    sim = ("--topology", "tiny", "--warmup-us", "50", "--measure-us", "200")
    sinks = ("--metrics-out", f"{d}/a.json", "--heartbeat-us", "50", "--trace-out", f"{d}/t.jsonl",
             "--trace-spans", f"{d}/s.jsonl", "--trace-chrome", f"{d}/c.json")
    return [
        script("scripts/generate_experiments_md.py", "--topology", "tiny", "--jobs", "2",
               "--cache-dir", f"{d}/cache", "--out", f"{d}/EXPERIMENTS.md"),
        cli("run", "--load", "1.0", "--json", *sim, *sinks),
        cli("run", "--arch", "traditional-2vc", *sim, "--metrics-out", f"{d}/b.json"),
        cli("trace", "blame", f"{d}/s.jsonl"),
        cli("trace", "blame", "--all", "--json", f"{d}/s.jsonl"),
        cli("trace", "export", f"{d}/s.jsonl", "-o", f"{d}/e.json"),
        cli("metrics", f"{d}/a.json"),
        cli("metrics", f"{d}/a.json", "--schema", str(ROOT / "docs/metrics_schema.json")),
        cli("metrics", f"{d}/a.json", f"{d}/b.json"),
        cli("figure", "fig2", "--loads", "1.0", "--out", f"{d}/fig2.csv", *sim),
        cli("claims", *sim),
        cli("replicate", "--seeds", "1", "2", *sim),
        cli("cost", *sim),
        cli("utilization", *sim),
        cli("list"),
        cli("profile", "run", "-o", f"{d}/p.pstats", *sim),
        cli("profile", "mem", "-o", f"{d}/m.json", *sim),
        cli("lint", "--project", str(ROOT / "src")),
        script("examples/evaluate_custom_design.py"),
        script("examples/mixed_datacenter.py"),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        missed = unreached(record(paper_paths(d), d))
    total = len(functions())
    for module in sorted({m for m, *_ in missed}):
        rows = [(name, line) for m, name, line, _ in missed if m == module]
        print(f"{module}: {len(rows)} unreached")
        print("".join(f"  {line:>4}  {name}\n" for name, line in rows), end="")
    lines = sum(n for *_, n in missed)
    print(f"unreached: {len(missed)} of {total} functions ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
