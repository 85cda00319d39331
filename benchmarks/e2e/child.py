"""One measured run, in a process of its own.

``python -m benchmarks.e2e.child '<spec json>'`` builds one
:class:`ExperimentConfig` from the spec, runs it through the two calls
``execute_config`` is made of (``run_experiment`` + ``summarize_run``),
and prints one JSON record as its last line of standard output: host
timings, peak RSS, the simulated-statistics digests, the public counters
of the finished fabric, the packet-conservation check and -- when the
spec says ``"profile": true`` -- the per-layer reduction of a
``cProfile`` pass over the same code.

The clock starts on the first line of this file, before ``repro`` is
imported, so ``wall_s`` is what a user pays for one ``repro-qos run``.
A :class:`~benchmarks.e2e.hostspeed.SpeedProbe` samples the host's speed
throughout; the seconds it pauses the run for are taken out of every
interval reported here, and ``host_speed`` is reported beside them.
"""

import time

_T0 = time.perf_counter()
_CPU0 = time.process_time()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict  # noqa: E402

from .hostspeed import SpeedProbe  # noqa: E402

US = 1_000  # ns per microsecond (repro.sim.units is not imported yet)


def _canonical(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _peak_rss_mb() -> float:
    """Peak resident set of this process.

    ``VmHWM`` rather than ``ru_maxrss``: Linux folds the *spawning*
    process's peak into a child's ``ru_maxrss`` at exec, so a child
    smaller than the harness would report the harness's size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    started_unix = time.time()
    probe = SpeedProbe()
    if not spec["profile"]:
        probe.start()
    from repro.exec.summary import summarize_run
    from repro.experiments.config import ExperimentConfig, scaled_video_mix
    from repro.experiments.runner import run_experiment

    if spec["observe"]:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import PacketTracer
        from repro.sim.monitor import Trace
    t_imported = time.perf_counter()

    config = ExperimentConfig(
        architecture=spec["architecture"],
        load=spec["load"],
        seed=spec["seed"],
        topology=spec["topology"],
        warmup_ns=spec["warmup_us"] * US,
        measure_ns=spec["measure_us"] * US,
        mix=scaled_video_mix(spec["load"], 0.02),
    )
    observers: Dict[str, Any] = {}
    if spec["observe"]:
        registry = MetricsRegistry()
        observers = {
            "metrics": registry,
            "tracer": PacketTracer(
                policy="head", rate=1.0, capacity=4096, seed=spec["seed"], metrics=registry
            ),
            "trace": Trace(capacity=65536, ring=True),
            "heartbeat_ns": 50 * US,
        }

    profiler = cProfile.Profile() if spec["profile"] else None
    t_profiled = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = run_experiment(config, **observers)
    t_ran = time.perf_counter()
    summary_doc = summarize_run(result).to_dict()
    json.dumps(summary_doc)  # encoding it is part of what a user waits for
    t_end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    probe.stop()
    cpu_s = time.process_time() - _CPU0
    # Read before the bookkeeping below allocates anything of its own.
    peak_rss_mb = _peak_rss_mb()

    # Everything from here on is outside every timed interval.
    fabric = result.fabric
    submitted = sum(host.packets_submitted for host in fabric.hosts)
    received = sum(host.packets_received for host in fabric.hosts)
    on_wire = submitted - received - fabric.queued_in_hosts() - fabric.queued_in_switches()
    classes = result.collector.classes
    factory = fabric.packet_factory

    spans_verified = 0
    tracer = result.tracer
    if tracer is not None:
        for span_trace in tracer.records:
            span_trace.verify()  # raises ValueError on a gap or overlap
            spans_verified += 1

    # run_experiment returns as soon as it has read its own stop-watch, so
    # the run it timed is the last ``wall_seconds`` before ``t_ran``.
    t_run = t_ran - result.wall_seconds
    wall_s = (t_end - _T0) - probe.paused_s(_T0, t_end)
    run_s = result.wall_seconds - probe.paused_s(t_run, t_ran)
    summarize_s = (t_end - t_ran) - probe.paused_s(t_ran, t_end)

    # The simulated statistics: the summary less what varies run to run.
    sim_blob = _canonical(
        {k: v for k, v in summary_doc.items() if k not in ("wall_seconds", "obs")}
    )
    record: Dict[str, Any] = {
        "ok": True,
        "spec": spec,
        "started_unix": started_unix,
        # Host seconds as measured, less the probe's pauses.
        "import_s": (t_imported - _T0) - probe.paused_s(_T0, t_imported),
        "setup_s": wall_s - run_s - summarize_s,
        "run_s": run_s,
        "summarize_s": summarize_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "elapsed_s": t_end - _T0,
        "host_speed": probe.host_speed() if probe.ticks else None,
        "probe_ticks": len(probe.ticks),
        "probe_paused_s": probe.paused_s(_T0, t_end),
        "peak_rss_mb": peak_rss_mb,
        "sim_digest": hashlib.sha256(sim_blob).hexdigest(),
        "classes_digest": hashlib.sha256(_canonical(summary_doc["classes"])).hexdigest(),
        "summary_bytes": len(sim_blob),
        "on_wire": on_wire,
        "links": len(fabric.links),
        "conserved": 0 <= on_wire <= len(fabric.links),
        "spans_verified": spans_verified,
        "counters": {
            "sim.engine.events": result.events_executed,
            "sim.engine.tombstone_ratio": fabric.engine.tombstone_ratio,
            "core.queues.takeover_hits": fabric.takeover_hits(),
            "network.fabric.flows_opened": len(fabric.flows),
            "network.switch.forwarded": sum(
                switch.packets_forwarded for switch in fabric.switches.values()
            ),
            "network.link.transmits": sum(
                link.packets_carried for link in fabric.links.values()
            ),
            "network.link.utilization": fabric.link_utilization(),
            "network.host.in_flight_end": submitted - received,
            "network.packet.minted": factory.uids_minted,
            # With pooling on, every Packet object ever allocated is either
            # back on the free list or still undelivered.
            "network.packet.allocated": factory.pooled + (submitted - received),
            "traffic.bytes_offered": sum(
                source.bytes_generated for source in result.mix.all_sources()
            ),
            "stats.deliveries": received,
            "stats.delivered_packets": sum(stats.packets for stats in classes.values()),
            "obs.spans_completed": tracer.completed if tracer is not None else 0,
        },
        "profile": None,
    }
    if profiler is not None:
        from .layers import reduce_profile

        record["profile"] = reduce_profile(profiler.getstats())
        record["profile"]["profiled_s"] = t_end - t_profiled
    return record


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python -m benchmarks.e2e.child '<spec json>'", file=sys.stderr)
        return 2
    try:
        record = measure(json.loads(argv[0]))
    except Exception:  # the boundary: report the failure as this run's record
        record = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
