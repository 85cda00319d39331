"""``python -m benchmarks.e2e`` -- the benchmark's one command.

::

    python -m benchmarks.e2e [--seed 1]
        every workload: 5 interleaved untraced rounds + 1 traced round;
        prints every metric with unit and direction, checks outputs,
        writes benchmarks/e2e/out/e2e-<stamp>.json (+ .jsonl raw records)

    python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
        one workload for S seconds; last line of stdout is one JSON
        object (the contract of BENCHMARK.json's ``command``)

    python -m benchmarks.e2e compare A.json B.json

Exit status is non-zero when any run failed a correctness check; the
metrics are printed first either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any, Dict, List, Mapping

from . import compare, harness
from .workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=1, help="flows to ExperimentConfig.seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="measure only this one")
    parser.add_argument("--seconds", type=float, default=12.0, help="with --workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload")
    return parser


def _stamp() -> str:
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def run_workload(args: argparse.Namespace, manifest: Mapping[str, Any]) -> int:
    run = harness.measure_one(
        args.workload, WORKLOADS, args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    failures = harness.check_run(run, harness.load_expected())
    harness.write_records(run.operations(), f"{args.workload}-seed{args.seed}-{_stamp()}")
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    if not run.good_rounds() or (args.trace and run.traced["failures"]):
        return 1  # nothing to report a metric from
    if args.trace:
        values = harness.per_layer_metrics(run)
        listed = manifest["per_layer"]
    else:
        by_round = harness.end_to_end_rounds(run)
        values = {name: statistics.median(rounds) for name, rounds in by_round.items()}
        listed = manifest["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def render(document: Mapping[str, Any]) -> str:
    env = document["environment"]
    lines = [
        f"seed {env['seed']}  nproc {env['nproc']}  python {env['python']}  "
        f"commit {env['git_commit']}  load {env['loadavg_1m_start']:.2f} -> "
        f"{env['loadavg_1m_end']:.2f}"
    ]
    for name, entry in document["workloads"].items():
        lines.append(
            f"\n== {name}: {entry['runs_failed']}/{entry['runs_attempted']} runs failed, "
            f"sim_digest {entry['sim_digest']}"
        )
        for metric, m in entry["end_to_end"].items():
            lines.append(
                f"  {metric:<40} {m['value']:>16.4f} {m['unit']:<10} {m['better']:<6} is better  "
                f"[min {m['min']:.4f} max {m['max']:.4f} n={m['n']}] bound {m['bound']:.0%}"
            )
        for metric, m in entry["per_layer"].items():
            lines.append(
                f"  {metric:<40} {m['value']:>16.4f} {m['unit']:<10} {m['better']:<6} is better"
            )
    lines.append("")
    lines.extend("FAILED " + line for line in document["failures"])
    if not document["failures"]:
        lines.append("all correctness checks passed")
    return "\n".join(lines)


def run_all(args: argparse.Namespace, manifest: Mapping[str, Any]) -> int:
    env = harness.environment(args.seed)
    runs = harness.measure_all(
        WORKLOADS, args.seed, log=lambda line: print(line, file=sys.stderr, flush=True)
    )
    document = harness.build_document(runs, manifest, harness.load_expected(), env)
    print(render(document))
    stem = f"e2e-seed{args.seed}-{_stamp()}"
    records: List[Dict[str, Any]] = [
        record for run in runs.values() for record in run.operations()
    ]
    harness.write_records(records, stem)
    path = harness.OUT_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")
    return 1 if document["failures"] else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if not (harness.ROOT / "src" / "repro").is_dir():
        print(f"no simulator to measure under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = harness.load_manifest()
    if args.workload is not None:
        return run_workload(args, manifest)
    return run_all(args, manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
