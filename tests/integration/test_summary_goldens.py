"""Every architecture's ``RunSummary`` on a short ``small`` window, pinned.

The benchmark's stored digests hold ``advanced-2vc`` and
``traditional-2vc``; ``ideal``, ``simple-2vc`` and ``ideal-pipelined`` (the
pipelined-heap oracle of ``ideal``, ``tests/core/pipelined_heap.py``) were
held only by the ``tiny`` sink goldens in
``tests/obs/test_observer_equivalence.py``.  This holds all five on the
32-host fabric, with the Table 1 mix (video compressed 50x) at load 0.9,
seed 1, 50 us of warm-up and a 150 us window: the sha256 of the summary
JSON (keys sorted) less ``wall_seconds``, captured at commit ``709ea12``
before the per-hop code was rewritten.  ``python
tests/integration/test_summary_goldens.py`` (with ``PYTHONPATH=src:.``)
prints the table; paste it only when a change is *meant* to move a
simulated statistic.
"""

import hashlib
import json

import pytest

from repro.exec.summary import summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.sim import units
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for

GOLDEN = {
    "advanced-2vc": "7267f5c0a4e72fef43c3cf29e9f500ff08625724e68e4d33b997d5a9ee5654a1",
    "ideal": "28b328e8a76292d0818b9512c6d0eaa7113bc4846bceaa18e653c8a14599177c",
    "ideal-pipelined": "8a404662d2eeab3c395feb8b50fc2fc81702c78f8c1f51c220f2f3a903e1adf8",
    "simple-2vc": "2f131ad54cd46b3530ee882fa6c606d13b2becc4cc95595bf1eaac18c837a49c",
    "traditional-2vc": "fa651b807081d4b5953a685b241ca6a9492bca48f5f5f3becc25b940b6d44890",
}


def _summary_sha(monkeypatch, architecture: str) -> str:
    engine_factory = engine_factory_for(monkeypatch, architecture)
    config = ExperimentConfig(
        architecture=architecture,
        load=0.9,
        seed=1,
        topology="small",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
        mix=scaled_video_mix(0.9, 0.02),
    )
    doc = summarize_run(run_experiment(config, engine_factory=engine_factory)).to_dict()
    doc.pop("wall_seconds")  # the one legitimately nondeterministic field
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_every_architecture_is_pinned():
    assert sorted(GOLDEN) == ARCHITECTURE_NAMES


@pytest.mark.parametrize("architecture", sorted(GOLDEN))
def test_summary_matches_golden(monkeypatch, architecture):
    assert _summary_sha(monkeypatch, architecture) == GOLDEN[architecture]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in ARCHITECTURE_NAMES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            print(f'    "{name}": "{_summary_sha(monkeypatch, name)}",')
    print("}")
