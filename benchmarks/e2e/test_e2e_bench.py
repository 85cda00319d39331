"""Shape test of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Drives the
harness's Python API on a ``tiny``, 50 us configuration -- two untraced
rounds plus a traced round per workload -- and checks the emitted
document against BENCHMARK.json's contract.  It asserts no timing.
"""

from __future__ import annotations

import re

import pytest

from . import compare, harness
from .workloads import WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7  # not 1: there is no stored digest for these configurations

TINY = {
    "tiny_mix": Workload("tiny", "advanced-2vc", 0.9, 10, 40),
    "tiny_obs": Workload("tiny", "advanced-2vc", 0.9, 10, 40, observe=True, baseline="tiny_mix"),
}


@pytest.fixture(scope="module")
def manifest():
    return harness.load_manifest()


@pytest.fixture(scope="module")
def runs():
    return harness.measure_all(TINY, SEED, rounds=2)


@pytest.fixture(scope="module")
def document(runs, manifest):
    return harness.build_document(runs, manifest, {}, harness.environment(SEED))


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in manifest["workloads"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower") and 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in manifest[
        "end_to_end"
    ]
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])
    assert {m["name"] for m in manifest["end_to_end"]} == set(harness.END_TO_END)


def test_no_run_failed(document):
    assert document["failures"] == []
    assert document["claim"] is None
    for entry in document["workloads"].values():
        assert entry["runs_attempted"] == 3 and entry["runs_failed"] == 0


def test_every_metric_on_every_workload(document, manifest):
    for entry in document["workloads"].values():
        assert list(entry["end_to_end"]) == [m["name"] for m in manifest["end_to_end"]]
        for metric in entry["end_to_end"].values():
            assert metric["unit"] and metric["better"] in ("higher", "lower")
            assert 0 < metric["bound"] <= 0.25
            assert metric["n"] == 2 and metric["min"] <= metric["value"] <= metric["max"]
            assert metric["value"] > 0
        assert list(entry["per_layer"]) == [m["name"] for m in manifest["per_layer"]]
        shares = [m["value"] for name, m in entry["per_layer"].items() if name.endswith(".share")]
        assert len(shares) == 20 and sum(shares) == pytest.approx(1.0)


def test_counts_repeat_exactly(runs):
    for run in runs.values():
        first, second = run.rounds
        assert first["counters"] == second["counters"]
        assert first["sim_digest"] == second["sim_digest"] == run.traced["sim_digest"]


def test_speed_probe_runs_in_untraced_rounds_only(runs):
    for run in runs.values():
        for record in run.rounds:
            assert record["host_speed"] > 0 and record["probe_ticks"] >= 1
            assert record["wall_s"] == pytest.approx(record["elapsed_s"] - record["probe_paused_s"])
            parts = record["setup_s"] + record["run_s"] + record["summarize_s"]
            assert parts == pytest.approx(record["wall_s"])
        assert run.traced["host_speed"] is None and run.traced["probe_ticks"] == 0


def test_observers_work_and_do_not_perturb(document):
    mix, obs = document["workloads"]["tiny_mix"], document["workloads"]["tiny_obs"]
    assert obs["classes_digest"] == mix["classes_digest"]
    assert obs["sim_digest"] != mix["sim_digest"]  # heartbeat ticks are events
    assert obs["per_layer"]["obs.spans_completed"]["value"] > 0
    assert mix["per_layer"]["obs.spans_completed"]["value"] == 0
    assert mix["per_layer"]["obs.overhead_x"]["value"] == 1.0
    assert obs["per_layer"]["obs.share"]["value"] > mix["per_layer"]["obs.share"]["value"]


def test_a_changed_statistic_fails_the_run(runs):
    def fresh(seed):
        run = harness.WorkloadRun("tiny_mix", TINY["tiny_mix"], seed)
        run.rounds = [dict(record, failures=[]) for record in runs["tiny_mix"].rounds]
        return run

    run = fresh(SEED)
    run.rounds[1]["sim_digest"] = "0" * 64
    assert len(harness.check_run(run, {})) == 1 and run.failed == 1
    run = fresh(1)  # seed 1 is held to the stored digest
    assert len(harness.check_run(run, {"tiny_mix": "f" * 64})) == 2
    run = fresh(SEED)
    run.rounds[0]["conserved"] = False
    assert run.failed == 0 and len(harness.check_run(run, {})) == 1


def test_compare_with_itself(document):
    result = compare.compare(document, document)
    assert len(result["rows"]) == 2 * 4
    assert {row["verdict"] for row in result["rows"]} <= {"unchanged", "unresolved"}
    assert result["count_differences"] == []


def test_compare_verdicts():
    def metric(values, better="lower"):
        ordered = sorted(values)
        return {
            "value": ordered[len(ordered) // 2],
            "min": ordered[0],
            "max": ordered[-1],
            "better": better,
            "bound": 0.10,
        }

    base = metric([10.0, 10.1, 10.2])
    assert compare.verdict(base, metric([10.0, 10.2, 10.3]))[0] == "unchanged"
    assert compare.verdict(base, metric([11.5, 11.6, 11.7]))[0] == "regressed"
    assert compare.verdict(base, metric([9.0, 9.1, 9.2]))[0] == "improved"
    assert compare.verdict(base, metric([9.0, 10.1, 12.5]))[0] == "unresolved"
    rate = metric([100.0, 101.0, 102.0], better="higher")
    assert compare.verdict(rate, metric([80.0, 81.0, 82.0], better="higher"))[0] == "regressed"
    assert compare.verdict(rate, metric([120.0, 121.0, 122.0], better="higher"))[0] == "improved"


def test_driver_protocol_on_one_workload(manifest):
    run = harness.measure_one("tiny_obs", TINY, SEED, seconds=0.0, trace=True)
    assert harness.check_run(run, {}) == []
    assert (run.attempted, run.failed) == (4, 0)  # traced + 2 rounds + the baseline
    values = harness.per_layer_metrics(run)
    assert set(values) == {m["name"] for m in manifest["per_layer"]}
    assert values["obs.overhead_x"] > 0 and values["trace.overhead_x"] > 0
