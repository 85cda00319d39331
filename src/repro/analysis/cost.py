"""Scheduling-cost instrumentation (the Section 2.2 / Section 6 argument).

Two views of "cost":

**Dynamic** -- comparator operations actually performed per forwarded
packet.  We wrap each architecture's queue and picker factories with
counting shims; the comparator counts per operation follow the hardware
each structure implies:

- FIFO: enqueue/dequeue touch no deadlines (0 comparisons);
- ordered/take-over pair: 1 tag comparison on enqueue (against L's
  tail) and 1 on dequeue (between the two heads);
- EDF heap: ceil(log2(n+1)) comparisons per insert/extract -- what a
  pipelined-heap implementation (Ioannou & Katevenis [9]) performs per
  stage across its pipeline;
- EDF head arbiter over k candidate queues: k-1 comparisons per grant;
  a round-robin arbiter does none (priority encoding, not comparison).

**Static** -- the hardware inventory per switch port: number of FIFO
memories, whether a sorting network/heap is needed, comparator count in
the arbiter.  This is the like-for-like silicon argument the paper's
conclusion makes ("for similar cost ... much better performance").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.arbiter import EDFPicker, Picker
from repro.core.architectures import Architecture
from repro.core.queues import EDFHeapQueue, PacketQueue, TakeOverQueue

__all__ = [
    "CostCounters",
    "CostReport",
    "HardwareInventory",
    "instrument_architecture",
    "measure_scheduling_cost",
    "static_inventory",
]


@dataclass
class CostCounters:
    """Aggregated operation counts for one instrumented run."""

    queue_pushes: int = 0
    queue_pops: int = 0
    queue_comparisons: int = 0
    arbiter_picks: int = 0
    arbiter_comparisons: int = 0

    @property
    def total_comparisons(self) -> int:
        return self.queue_comparisons + self.arbiter_comparisons

    def per_packet(self, packets: int) -> float:
        return self.total_comparisons / packets if packets else 0.0


def _queue_comparisons(queue: PacketQueue, op: str) -> int:
    """Comparator cost of one push/pop on the given structure.

    Custom queue classes can declare a fixed per-operation cost via a
    ``COMPARISONS_PER_OP`` class attribute (see
    ``examples/evaluate_custom_design.py``); the built-ins are priced
    here.
    """
    declared = getattr(queue, "COMPARISONS_PER_OP", None)
    if declared is not None:
        return declared
    if isinstance(queue, TakeOverQueue):
        return 1  # tail check on push; two-head min on pop
    if isinstance(queue, EDFHeapQueue):
        # Heap path length; the pipelined-heap hardware pays this in
        # pipeline stages, software in actual comparisons.
        return max(1, math.ceil(math.log2(len(queue) + 2)))
    return 0  # plain FIFO


class _CountingQueue(PacketQueue):
    """Delegating shim that tallies operations into shared counters."""

    __slots__ = ("inner", "counters")

    def __init__(self, inner: PacketQueue, counters: CostCounters):
        self.inner = inner
        self.counters = counters

    def push(self, pkt) -> None:
        self.counters.queue_pushes += 1
        self.counters.queue_comparisons += _queue_comparisons(self.inner, "push")
        self.inner.push(pkt)

    def pop(self):
        self.counters.queue_pops += 1
        self.counters.queue_comparisons += _queue_comparisons(self.inner, "pop")
        return self.inner.pop()

    @property
    def front(self):
        return self.inner.front

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)


class _CountingPicker(Picker):
    __slots__ = ("inner", "counters")

    def __init__(self, inner: Picker, counters: CostCounters):
        self.inner = inner
        self.counters = counters

    def pick(self, queues, backlogged, budget=None):
        self.counters.arbiter_picks += 1
        if isinstance(self.inner, EDFPicker):
            self.counters.arbiter_comparisons += max(0, len(backlogged) - 1)
        return self.inner.pick(queues, backlogged, budget)

    def granted(self, index: int) -> None:
        self.inner.granted(index)


def instrument_architecture(base: Architecture) -> tuple[Architecture, CostCounters]:
    """A clone of ``base`` whose queues/pickers tally into shared counters."""
    counters = CostCounters()
    instrumented = replace(
        base,
        name=f"{base.name}+counting",
        queue_factory=lambda: _CountingQueue(base.queue_factory(), counters),
        picker_factory=lambda: _CountingPicker(base.picker_factory(), counters),
    )
    return instrumented, counters


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HardwareInventory:
    """Static per-port hardware implied by an architecture (2 VCs)."""

    fifo_memories: int
    needs_sorting_hardware: bool
    arbiter_comparators_per_port: int
    per_flow_state: bool = False  # never, for any of the paper's designs


def static_inventory(architecture: Architecture, radix: int) -> HardwareInventory:
    """What one output port's scheduling logic needs at the given radix."""
    queue = architecture.queue_factory()
    if isinstance(queue, TakeOverQueue):
        fifos, sorting = 2 * 2, False  # two FIFOs per VC
    elif isinstance(queue, EDFHeapQueue):
        fifos, sorting = 0, True
    else:
        fifos, sorting = 1 * 2, False
    picker = architecture.picker_factory()
    comparators = radix - 1 if isinstance(picker, EDFPicker) else 0
    return HardwareInventory(
        fifo_memories=fifos,
        needs_sorting_hardware=sorting,
        arbiter_comparators_per_port=comparators,
    )


# ----------------------------------------------------------------------
@dataclass
class CostReport:
    architecture: str
    packets_forwarded: int
    counters: CostCounters
    inventory: HardwareInventory

    @property
    def comparisons_per_packet(self) -> float:
        return self.counters.per_packet(self.packets_forwarded)

    def row(self) -> list:
        return [
            self.architecture,
            self.packets_forwarded,
            round(self.comparisons_per_packet, 2),
            self.inventory.fifo_memories,
            "yes" if self.inventory.needs_sorting_hardware else "no",
            self.inventory.arbiter_comparators_per_port,
        ]


def measure_scheduling_cost(
    base: Architecture,
    *,
    topology=None,
    load: float = 1.0,
    seed: int = 1,
    horizon_ns: int = 1_000_000,
    mix_config=None,
) -> CostReport:
    """Run the Table 1 mix under an instrumented ``base`` and report.

    Uses its own small fabric (16 hosts by default); comparator counts
    per packet converge quickly, so short horizons suffice.
    """
    from repro.experiments.presets import make_topology
    from repro.network.fabric import Fabric
    from repro.sim.rng import RandomStreams
    from repro.traffic.mix import TrafficMixConfig, build_mix

    if topology is None:
        topology = make_topology("tiny")
    instrumented, counters = instrument_architecture(base)
    fabric = Fabric(topology, instrumented)
    mix = build_mix(
        fabric, RandomStreams(seed), mix_config or TrafficMixConfig(load=load)
    )
    mix.start()
    fabric.run(until=horizon_ns)
    packets = sum(sw.packets_forwarded for sw in fabric.switches.values())
    radix = max(topology.radix(sw) for sw in topology.switch_ids)
    return CostReport(
        architecture=base.name,
        packets_forwarded=packets,
        counters=counters,
        inventory=static_inventory(base, radix),
    )
