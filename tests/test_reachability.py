"""The reachability audit's machinery (``scripts/reachability.py``), on the
one path that simulates nothing: ``repro-qos list``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "scripts/reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_list_leaves_the_engine_unreached_and_reaches_its_handler(tmp_path):
    audit = _script()
    missed = audit.unreached(audit.record([audit.cli("list")], str(tmp_path)))
    names = {(module, name) for module, name, _, _ in missed}
    assert ("repro/sim/engine.py", "Engine.run") in names
    assert ("repro/cli/probes.py", "listing") not in names
    assert ("repro/cli/__init__.py", "main") not in names
    # Every def is listed once, lint/ aside, and what ran is not in the list.
    defs = audit.functions()
    assert len(missed) < len(defs)
    assert not any("/lint/" in path for path, _ in defs)
