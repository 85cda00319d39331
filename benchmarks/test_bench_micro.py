"""Microbenchmarks of the hot substrate components.

Not a paper artifact -- these time the pieces every experiment is built
from, so simulator-performance regressions are visible in isolation:

- event kernel dispatch rate, tombstone-heavy cancel/reschedule and
  mixed-horizon workloads (plain timings of ``Engine``; the wheel's
  best and worst cases are the last two),
- push/pop throughput of the three buffer structures (the FIFO-vs-heap
  cost gap is the paper's implementability argument in microseconds),
- deadline stamping rate,
- up*/down* route enumeration over the paper-size MIN,
- flow opening (routing + admission + registry) on the paper-size fabric.

Nothing here gates a ratio or a threshold: ``benchmarks/e2e`` (declared
in ``BENCHMARK.json``) is the performance record, and the event kernel's
correctness oracle is ``tests/sim/heap_engine.py``.
"""

from __future__ import annotations

import random

from repro.core.deadline import RateBasedStamper
from repro.core.queues import EDFHeapQueue, FifoQueue, TakeOverQueue
from repro.network.fabric import Fabric
from repro.network.routing import RoutingTable
from repro.network.topology import paper_topology
from repro.network.packet import Packet
from repro.sim.engine import _DEFAULT_WHEEL_SLOTS, Engine


def mkpkt(deadline: int, *, size: int = 256) -> Packet:
    return Packet(
        flow_id=1, seq=0, src=0, dst=1, size=size, vc=0,
        tclass="bench", deadline=deadline,
    )

N_EVENTS = 50_000
N_PACKETS = 20_000


def _chain_dispatch(n=N_EVENTS):
    """Serial event chain: one event in flight at all times, so every
    dispatch is one bucket append, one occupied-time push and one pop --
    the kernel's per-event floor.  Not a shape the simulator produces:
    a fast path for a lone pending event, counted over whole runs,
    dispatched 0 of the 519 912 / 758 610 / 184 794 events of
    ``small_mix`` / ``paper_edf`` / ``scale512_cold`` and was deleted."""
    engine = Engine()

    def chain(remaining):
        if remaining:
            engine.after(1, chain, remaining - 1)

    engine.at(0, chain, n)
    engine.run_all()
    return engine.events_executed


def _tombstone_churn(n=N_PACKETS):
    """Cancel/reschedule churn: every step arms two cancellable timers
    and cancels one before it fires -- the EDF wakeup-rearm pattern that
    made the old heap drag tombstones through every sift."""
    engine = Engine()
    state = {"remaining": n, "doomed": None}

    def crash():  # pragma: no cover - fires only on a cancellation bug
        raise AssertionError("cancelled event fired")

    def step():
        if state["doomed"] is not None:
            state["doomed"].cancel()
        if state["remaining"]:
            state["remaining"] -= 1
            state["doomed"] = engine.after_cancellable(5, crash)
            engine.after(1, step)

    engine.after(0, step)
    engine.run_all()
    return engine.events_executed


def _mixed_horizon(n=N_PACKETS):
    """Near-now chain interleaved with far-future timers that land past
    the wheel horizon -- the overflow heap's worst case (every eighth
    step pays a heap push plus a later drain)."""
    far = _DEFAULT_WHEEL_SLOTS * 3
    engine = Engine()
    state = {"remaining": n}

    def far_noop():
        pass

    def near(i):
        if state["remaining"]:
            state["remaining"] -= 1
            engine.after((i * 7) % 1000, near, i + 1)
            if i % 8 == 0:
                engine.after(far + (i % 97), far_noop)

    engine.after(0, near, 1)
    engine.run_all()
    return engine.events_executed


def test_bench_engine_dispatch(benchmark):
    executed = benchmark(_chain_dispatch)
    assert executed == N_EVENTS + 1


def test_bench_engine_tombstone_churn(benchmark):
    assert benchmark(_tombstone_churn) == N_PACKETS + 1


def test_bench_engine_mixed_horizon(benchmark):
    executed = benchmark(_mixed_horizon)
    assert executed == N_PACKETS + N_PACKETS // 8 + 1


def _queue_workload(queue_cls):
    rng = random.Random(42)
    packets = [mkpkt(rng.randrange(1_000_000)) for _ in range(N_PACKETS)]

    def run():
        queue = queue_cls()
        out = 0
        for i, pkt in enumerate(packets):
            queue.push(pkt)
            if i % 3 == 2:  # interleave drains: realistic switch pattern
                queue.pop()
                out += 1
        while queue:
            queue.pop()
            out += 1
        return out

    return run


def test_bench_queue_fifo(benchmark):
    assert benchmark(_queue_workload(FifoQueue)) == N_PACKETS


def test_bench_queue_takeover(benchmark):
    assert benchmark(_queue_workload(TakeOverQueue)) == N_PACKETS


def test_bench_queue_edf_heap(benchmark):
    assert benchmark(_queue_workload(EDFHeapQueue)) == N_PACKETS


def test_bench_deadline_stamping(benchmark):
    def stamp_many():
        stamper = RateBasedStamper(0.25)
        now = 0
        for i in range(N_PACKETS):
            now += 100
            stamper.stamp(now, 2048)
        return stamper.last_deadline

    assert benchmark(stamp_many) > 0


def test_bench_routing_paper_topology(benchmark):
    """Ask for the candidates from one host to every other host of the
    128-endpoint network, read the links admission scores and build one
    path of each (what routing does per flow setup)."""
    topo = paper_topology()

    def enumerate_paths():
        table = RoutingTable(topo)
        count = 0
        for dst in range(1, topo.n_hosts):
            candidates = table.candidates(0, dst)
            count += len(candidates.varying)
            candidates.path(0)
        return count

    count = benchmark(enumerate_paths)
    # 7 same-leaf destinations with 1 path, 120 cross-leaf with 8 paths.
    assert count == 7 * 1 + 120 * 8


def test_bench_open_flow_paper_fabric(benchmark):
    """Open 2 000 seeded flows through ``Fabric.open_flow`` on the
    128-endpoint fabric: candidate routes, admission scoring and the flow
    registry together -- the unit the end-to-end ``open_flow`` share is
    made of (the routing benchmark above, from host 0 only, is one row of
    segment reuse)."""
    topo = paper_topology()
    rng = random.Random(2_000)
    opens = [
        (*rng.sample(range(topo.n_hosts), 2), rng.random() < 0.5) for _ in range(2_000)
    ]

    def fresh_fabric():
        return (Fabric(topo),), {}

    def open_flows(fabric):
        for src, dst, regulated in opens:
            fabric.open_flow(
                src, dst, "multimedia" if regulated else "best-effort", bw_bytes_per_ns=0.001
            )
        return fabric

    # Building the fabric is set-up, not flow opening: keep it out of the timing.
    fabric = benchmark.pedantic(open_flows, setup=fresh_fabric, rounds=10)
    assert len(fabric.flows) == 2_000
    assert fabric.admission.reservation_count == sum(regulated for _, _, regulated in opens)
    assert all(flow.path for flow in fabric.flows)
