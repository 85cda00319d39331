"""The prose maps of the code cannot rot: every backticked dotted
``repro.…`` name in them imports (or resolves by ``getattr`` from the
longest importable module), and every backticked ``…/*.py`` path exists,
from the repository root or from ``src/repro/``."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = (
    "docs/ARCHITECTURE.md",
    "docs/PAPER_MAP.md",
    "docs/TUTORIAL.md",
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
)


def _backticked(doc):
    return re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text(encoding="utf-8"))


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_repro_name_resolves(doc):
    names = {name for span in _backticked(doc) for name in re.findall(r"\brepro(?:\.\w+)+", span)}
    assert [name for name in sorted(names) if not _resolves(name)] == []


@pytest.mark.parametrize("doc", DOCS)
def test_every_py_path_exists(doc):
    paths = {path for span in _backticked(doc) for path in re.findall(r"[\w.-]+(?:/[\w.-]+)+\.py\b", span)}
    missing = [p for p in sorted(paths) if not (ROOT / p).exists() and not (ROOT / "src/repro" / p).exists()]
    assert missing == []
