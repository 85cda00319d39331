"""Run children, check their outputs, reduce them to named metrics.

One *operation* is one child run (:mod:`benchmarks.e2e.child`): a fresh
``python`` process with ``PYTHONHASHSEED=0``, one at a time.  A
:class:`WorkloadRun` collects a workload's untraced rounds, its one
traced round and, where the workload names a baseline, the baseline's
rounds; :func:`check_run` marks the operations that failed and
:func:`end_to_end_rounds` / :func:`per_layer_metrics` reduce the rest to
the metrics BENCHMARK.json names.  End-to-end metrics come from untraced
rounds only; every host time is reported at the reference host speed
(:mod:`benchmarks.e2e.hostspeed`), raw seconds stay in the records.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from .layers import LAYERS
from .workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected_digests.json"
OUT_DIR = HERE / "out"

#: The slowest child (a traced ``paper_edf``) takes ~30 s here.
CHILD_TIMEOUT_S = 150
SHARE_TOLERANCE = 0.01
#: A median (and ``run.spread``) needs two rounds whatever ``--seconds`` says.
MIN_ROUNDS = 2

Record = Dict[str, Any]
Log = Callable[[str], None]


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST_PATH, encoding="utf-8") as fp:
        return json.load(fp)


def load_expected() -> Dict[str, str]:
    """``{workload: sim_digest}`` for seed 1."""
    with open(EXPECTED_PATH, encoding="utf-8") as fp:
        return json.load(fp)


# ----------------------------------------------------------------------
# one child
# ----------------------------------------------------------------------
def run_child(name: str, workload: Workload, seed: int, *, profile: bool = False) -> Record:
    """Run one child to completion; never raises for a failed run."""
    spec = workload.spec(seed, profile)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        record: Record = {"ok": False, "error": f"no result after {CHILD_TIMEOUT_S} s"}
    else:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            record = {
                "ok": False,
                "error": f"exit {proc.returncode}, no record: {proc.stderr[-2000:]}",
            }
    record.setdefault("spec", spec)
    record["workload"] = name
    record["failures"] = [] if record["ok"] else [record["error"]]
    return record


# ----------------------------------------------------------------------
# one workload's runs
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    name: str
    workload: Workload
    seed: int
    rounds: List[Record] = field(default_factory=list)
    traced: Optional[Record] = None
    #: Untraced rounds of ``workload.baseline`` (the same list object as
    #: that workload's own ``rounds`` when both are being measured).
    baseline_rounds: List[Record] = field(default_factory=list)
    #: True when this run owns (and so counts) the baseline's operations.
    owns_baseline: bool = False

    def operations(self) -> List[Record]:
        ops = list(self.rounds)
        if self.traced is not None:
            ops.append(self.traced)
        if self.owns_baseline:
            ops.extend(self.baseline_rounds)
        return ops

    @property
    def attempted(self) -> int:
        return len(self.operations())

    @property
    def failed(self) -> int:
        return sum(1 for record in self.operations() if record["failures"])

    def good_rounds(self) -> List[Record]:
        return [record for record in self.rounds if not record["failures"]]


def check_run(run: WorkloadRun, expected: Mapping[str, str]) -> List[str]:
    """Mark every failed operation of ``run``; returns all the reasons.

    The checks: the child finished; packets are conserved; every
    retained span telescopes (the child raises otherwise); the simulated
    statistics are identical in every round, traced or not, and -- for
    seed 1 -- identical to the stored digest; observation left the
    ``classes`` section as the baseline has it; the layers' self
    times add up to the profiled interval (shares sum to 1).
    """

    def fail(record: Record, reason: str) -> None:
        record["failures"].append(reason)

    def check_statistics(records: List[Record], name: str) -> None:
        """Conservation, and one digest for all: the stored one at seed 1."""
        stored = expected.get(name) if run.seed == 1 else None
        reference = stored or (records[0]["sim_digest"] if records else None)
        for record in records:
            if not record["conserved"]:
                fail(record, f"conservation: {record['on_wire']} on {record['links']} wires")
            if record["sim_digest"] != reference:
                what = "stored seed-1 digest" if stored else "first round"
                fail(record, f"sim_digest {record['sim_digest'][:12]} differs from the {what}")

    own = [record for record in run.rounds + ([run.traced] if run.traced else []) if record["ok"]]
    check_statistics(own, run.name)

    if run.workload.baseline is not None:
        base_ok = [record for record in run.baseline_rounds if record["ok"]]
        if run.owns_baseline:
            check_statistics(base_ok, run.workload.baseline)
        for record in own:
            if not base_ok:
                fail(record, f"no {run.workload.baseline} run to compare classes with")
            elif record["classes_digest"] != base_ok[0]["classes_digest"]:
                fail(record, f"classes differ from {run.workload.baseline}: observers perturbed")

    if run.workload.observe:
        for record in own:
            if record["spans_verified"] == 0:
                fail(record, "observing run retained no span to verify")

    if run.traced is not None and run.traced["ok"]:
        # Shares are self time over the layers' total, so they sum to 1 by
        # construction; what can go wrong is the total not covering the
        # interval the profiler watched.
        profile = run.traced["profile"]
        covered = profile["total_s"] / profile["profiled_s"]
        if abs(covered - 1.0) > SHARE_TOLERANCE:
            fail(run.traced, f"layer self times cover {covered:.4f} of the profiled interval")

    return [
        f"{run.name}: {reason}" for record in run.operations() for reason in record["failures"]
    ]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _seconds(record: Record, key: str) -> float:
    """A host time of one child at the reference host speed (hostspeed.py)."""
    return record[key] * record["host_speed"]


def _pkts_per_s(record: Record) -> float:
    return record["counters"]["stats.delivered_packets"] / _seconds(record, "run_s")


END_TO_END: Dict[str, Callable[[Record], float]] = {
    "pkts_per_s": _pkts_per_s,
    "wall_s": lambda record: _seconds(record, "wall_s"),
    "setup_s": lambda record: _seconds(record, "setup_s"),
    "peak_rss_mb": lambda record: record["peak_rss_mb"],
}


def end_to_end_rounds(run: WorkloadRun) -> Dict[str, List[float]]:
    """Per metric, its value in each good untraced round."""
    rounds = run.good_rounds()
    return {name: [read(record) for record in rounds] for name, read in END_TO_END.items()}


def per_layer_metrics(run: WorkloadRun) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    Needs at least one good untraced round and a good traced round.
    Counts are read from the first good round (every round has the same:
    :func:`check_run` requires identical simulated statistics) and from
    the traced round's call counts; untraced timings are medians over the
    rounds at reference host speed; the traced round's seconds are raw
    (it runs without the speed probe) -- its shares are what to read.
    """
    rounds = run.good_rounds()
    traced = run.traced
    if not rounds or traced is None or traced["failures"]:
        raise ValueError(f"{run.name}: per-layer metrics need a good untraced and traced round")
    profile = traced["profile"]
    counters = rounds[0]["counters"]
    calls = profile["calls"]

    def median(read: Callable[[Record], float]) -> float:
        return statistics.median(read(record) for record in rounds)

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = profile["self_s"][layer]
        values[f"{layer}.share"] = profile["self_s"][layer] / profile["total_s"]
    values.update(counters)
    values.update(calls)
    values.update(profile["cumulative_s"])

    grants = counters["network.switch.forwarded"]
    values["sim.engine.events_per_s"] = median(
        lambda record: record["counters"]["sim.engine.events"] / _seconds(record, "run_s")
    )
    values["core.arbiter.picks_per_grant"] = calls["core.arbiter.picks"] / grants
    values["core.queues.heads_per_grant"] = calls["core.queues.heads"] / grants
    values["network.switch.arbitrations_per_grant"] = (
        calls["network.switch.arbitrations"] / grants
    )
    values["exec.summarize_s"] = median(lambda record: _seconds(record, "summarize_s"))
    values["exec.summary_bytes"] = rounds[0]["summary_bytes"]
    values["experiments.import_s"] = median(lambda record: _seconds(record, "import_s"))

    wall = median(lambda record: _seconds(record, "wall_s"))
    base_rounds = [record for record in run.baseline_rounds if not record["failures"]]
    # A workload with no observers attached is its own baseline.
    values["obs.overhead_x"] = (
        wall / statistics.median(_seconds(record, "wall_s") for record in base_rounds)
        if base_rounds
        else 1.0
    )
    values["trace.overhead_x"] = traced["wall_s"] / median(lambda record: record["wall_s"])
    values["run.cpu_wall_ratio"] = median(lambda record: record["cpu_s"] / record["elapsed_s"])
    values["run.host_speed"] = median(lambda record: record["host_speed"])
    rates = [_pkts_per_s(record) for record in rounds]
    values["run.spread"] = (max(rates) - min(rates)) / statistics.median(rates)
    return values


# ----------------------------------------------------------------------
# environment and raw records
# ----------------------------------------------------------------------
def environment(seed: int) -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout (the driver's copy is not)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "loadavg_1m_start": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def write_records(records: List[Record], stem: str) -> Path:
    """The raw trail of one invocation: one JSON line per child run."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{stem}.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        for record in records:
            fp.write(json.dumps(record, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# the two protocols
# ----------------------------------------------------------------------
def measure_one(
    name: str,
    workloads: Mapping[str, Workload],
    seed: int,
    *,
    seconds: float,
    trace: bool,
) -> WorkloadRun:
    """The driver's protocol: one workload, rounds until ``seconds`` of
    host time have been measured (at least ``MIN_ROUNDS``).  With
    ``trace`` the traced round runs first and counts towards the time."""
    workload = workloads[name]
    run = WorkloadRun(name, workload, seed)
    started = time.perf_counter()
    if trace:
        run.traced = run_child(name, workload, seed, profile=True)
    while len(run.rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        run.rounds.append(run_child(name, workload, seed))
    if workload.baseline is not None:
        run.owns_baseline = True
        run.baseline_rounds.append(
            run_child(workload.baseline, workloads[workload.baseline], seed)
        )
    return run


def measure_all(
    workloads: Mapping[str, Workload],
    seed: int,
    *,
    rounds: int = 5,
    log: Log = lambda line: None,
) -> Dict[str, WorkloadRun]:
    """The full protocol: ``rounds`` interleaved rounds over all the
    workloads (order reversed every other round, so no workload always
    follows the same neighbour), then one traced round each."""
    runs = {name: WorkloadRun(name, workload, seed) for name, workload in workloads.items()}
    for run in runs.values():
        if run.workload.baseline is not None:
            run.baseline_rounds = runs[run.workload.baseline].rounds
    names = list(workloads)
    for index in range(rounds):
        for name in names if index % 2 == 0 else reversed(names):
            record = run_child(name, workloads[name], seed)
            runs[name].rounds.append(record)
            log(f"round {index + 1}/{rounds} {name}: " + _one_line(record))
    for name in names:
        runs[name].traced = run_child(name, workloads[name], seed, profile=True)
        log(f"traced {name}: " + _one_line(runs[name].traced))
    return runs


def _one_line(record: Record) -> str:
    if not record["ok"]:
        return "FAILED " + record["error"].strip().splitlines()[-1]
    if record["host_speed"] is None:  # a traced round: raw seconds only
        return f"wall {record['wall_s']:.2f} s under cProfile"
    return (
        f"wall {record['wall_s']:.2f} s at host speed {record['host_speed']:.2f}, "
        f"{_pkts_per_s(record):.0f} packets/s at reference speed"
    )


def build_document(
    runs: Mapping[str, WorkloadRun],
    manifest: Mapping[str, Any],
    expected: Mapping[str, str],
    env: Dict[str, Any],
) -> Dict[str, Any]:
    """Check every run and reduce it to the document ``compare`` reads."""
    document: Dict[str, Any] = {
        "schema": 1,
        "claim": None,
        "environment": env,
        "workloads": {},
        "failures": [],
    }
    for name, run in runs.items():
        document["failures"].extend(check_run(run, expected))
    for name, run in runs.items():
        good = run.good_rounds()
        entry: Dict[str, Any] = {
            "runs_attempted": run.attempted,
            "runs_failed": run.failed,
            "sim_digest": good[0]["sim_digest"] if good else None,
            "classes_digest": good[0]["classes_digest"] if good else None,
            "end_to_end": {},
            "per_layer": {},
        }
        if good:
            by_round = end_to_end_rounds(run)
            for metric in manifest["end_to_end"]:
                values = by_round[metric["name"]]
                entry["end_to_end"][metric["name"]] = {
                    "value": statistics.median(values),
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                    "min": min(values),
                    "max": max(values),
                    "n": len(values),
                    "rounds": values,
                }
        if good and run.traced is not None and not run.traced["failures"]:
            values = per_layer_metrics(run)
            for metric in manifest["per_layer"]:
                entry["per_layer"][metric["name"]] = {
                    "value": values[metric["name"]],
                    "unit": metric["unit"],
                    "better": metric["better"],
                }
        document["workloads"][name] = entry
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["finished_unix"] = time.time()
    return document
