"""simlint's output, byte for byte.

``repro-qos lint --project`` over the per-file and the project bad
fixtures is pinned by sha256 in all three formats (text, JSON, SARIF),
plus one run ranked by a hand-built pstats dump (fixed cumulative times,
written with ``marshal``) and a hand-written memprofile dump, plus the
``projectmodel.json`` a ``--cache-dir`` run writes.  Any change to a
message, a location, a ranking bucket or a cached fact moves a digest.

``python tests/lint/test_output_golden.py`` (from the repository root,
with ``src`` on ``PYTHONPATH``) reprints ``GOLDEN``; paste it only when
the output is *meant* to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import marshal
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
BAD = "tests/lint/fixtures/bad"
PROJECT_BAD = "tests/lint/fixtures/project/bad"
TARGETS = [BAD, PROJECT_BAD]
QUEUES = "core/queues"
RING = f"{PROJECT_BAD}/sim303_attr_reload/{QUEUES}/ring.py"
STAMP = f"{PROJECT_BAD}/sim306_eager_str/{QUEUES}/stamp.py"
MERGE = f"{PROJECT_BAD}/sim304_global_lookup/{QUEUES}/mergeq.py"
SPLITTER = f"{PROJECT_BAD}/sim406_time_div/splitter.py"
TICKLOG = f"{PROJECT_BAD}/sim501_unbounded_hot_growth/{QUEUES}/ticklog.py"
REGISTRY = f"{PROJECT_BAD}/sim504_keyed_growth/registry.py"
DEDUP = f"{PROJECT_BAD}/sim502_linear_membership/{QUEUES}/dedup.py"

# (exit code, sha256 of stdout + NUL + stderr) per run, and the sha256
# of the cache file; captured at c4ee0c5, before the lint internals were
# merged, and equal on CPython 3.10, 3.11 and 3.12.
GOLDEN: Dict[str, Tuple[int, str]] = {
    "cache-file": (
        0,
        "499ed726832f9cab4a51db6cf98696e766a0ce81747921cdafaddece4349a98a",
    ),
    "json": (
        1,
        "70c80387e1bae914ed6da33cf69de48703a423be008d4b5b01a490d48aa74c9b",
    ),
    "ranked-json": (
        1,
        "f77bba879abc36cdc8f7548f13ab471c1eacf5e19ccfa0a977cd7be05c03958a",
    ),
    "ranked-text": (
        1,
        "97413994f44cb45e240f958ba1a9a406324127185665a640629926a4cd180a07",
    ),
    "sarif": (
        1,
        "61bb31598583c89b827ed75c4a9193280752a65f6ce26d52c4f2df5a05c149c9",
    ),
    "text": (
        1,
        "b7e7886aba57a62556b9d43d226cb42903defa04e38b1e2530192f43ad63b9b6",
    ),
}


def write_pstats(path: Path) -> Path:
    """A pstats dump with fixed times: ``occupancy`` hot, ``label`` and
    ``merge`` warm, ``half_delay`` matched by bare name only (its line
    is wrong), a builtin frame that must be skipped, everything else
    never measured (cold)."""
    # (file, def line, name) -> (primitive calls, calls, self s, cum s, callers)
    stats = {
        (RING, 10, "occupancy"): (300, 300, 1.5, 3.0, {}),
        (STAMP, 10, "label"): (1, 1, 0.125, 0.25, {}),
        (MERGE, 6, "merge"): (2, 2, 0.25, 0.5, {}),
        (SPLITTER, 999, "half_delay"): (1, 1, 0.0625, 0.0625, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 0.5, 0.5, {}),
    }
    path.write_bytes(marshal.dumps(stats))
    return path


def write_memprofile(path: Path) -> Path:
    """A memprofile dump: the SIM501 grow site hot, SIM504 and SIM502
    warm, SIM505 unmeasured (cold), one frozen-module site skipped."""
    sites = [
        (TICKLOG, 11, 8_000_000),
        (REGISTRY, 9, 4_096),
        (DEDUP, 11, 512),
        (DEDUP, 17, 256),
        ("<frozen importlib._bootstrap>", 1, 1_000),
    ]
    payload = {
        "schema": "simlint-memprofile/v1",
        "total_bytes": sum(size for _, _, size in sites),
        "peak_bytes": 1 << 24,
        "events_executed": 1000,
        "sites": [
            {"file": name, "line": line, "size_bytes": size, "count": 1}
            for name, line, size in sites
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_lint(*argv: str) -> Tuple[int, str]:
    """``repro-qos lint --project <argv> <fixtures>`` from the repository
    root (so reported paths are relative): exit code and output digest."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["lint", "--project", *argv, *TARGETS])
    finally:
        os.chdir(previous)
    return code, _sha((out.getvalue() + "\0" + err.getvalue()).encode())


def capture(workdir: Path) -> Dict[str, Tuple[int, str]]:
    """Every pinned run, keyed like ``GOLDEN``."""
    runs: Dict[str, Tuple[int, str]] = {}
    for fmt in ("text", "json", "sarif"):
        runs[fmt] = run_lint("--format", fmt)
    pstats = write_pstats(workdir / "prof.pstats")
    mem = write_memprofile(workdir / "mem.json")
    for fmt in ("text", "json"):
        runs[f"ranked-{fmt}"] = run_lint(
            "--format", fmt, "--profile", str(pstats), "--memprofile", str(mem)
        )
    cache_dir = workdir / "cache"
    run_lint("--format", "json", "--cache-dir", str(cache_dir))
    cache_bytes = (cache_dir / "projectmodel.json").read_bytes()
    runs["cache-file"] = (0, _sha(cache_bytes))
    return runs


@pytest.fixture(scope="module")
def captured(tmp_path_factory) -> Dict[str, Tuple[int, str]]:
    return capture(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", sorted(GOLDEN), ids=str)
def test_output_is_byte_identical(captured, run):
    assert captured[run] == GOLDEN[run]


def test_every_run_is_pinned(captured):
    assert sorted(captured) == sorted(GOLDEN)


def test_ranked_dumps_exercise_every_bucket(tmp_path, monkeypatch):
    """The hand-built dumps must keep meaning something: both rankings
    produce hot, warm and cold findings."""
    from repro.lint import lint_project

    monkeypatch.chdir(ROOT)
    _, stats = lint_project(
        TARGETS,
        profile=write_pstats(tmp_path / "prof.pstats"),
        memprofile=write_memprofile(tmp_path / "mem.json"),
    )
    for key in ("profile", "memprofile"):
        assert min(stats[key][bucket] for bucket in ("hot", "warm", "cold")) >= 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = capture(Path(scratch))
    sys.stdout.write("GOLDEN: Dict[str, Tuple[int, str]] = {\n")
    for key in sorted(table):
        code, digest = table[key]
        sys.stdout.write(f'    "{key}": (\n        {code},\n        "{digest}",\n    ),\n')
    sys.stdout.write("}\n")
