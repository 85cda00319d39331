"""Test oracle: the pipelined-heap buffer (Ioannou & Katevenis, ICC 2001 --
the paper's [9]) and the ``ideal-pipelined`` preset it ran as.

The paper's *Ideal* architecture assumes a buffer that always exposes
the minimum-deadline packet.  The hardware the authors cite for that is
the **pipelined heap**: a binary heap laid out one level per pipeline
stage, so an insert or extract occupies each level for one cycle and a
new operation can enter every cycle -- full throughput, but each
operation still takes ``depth`` cycles to settle, and the structure
needs one comparator + one dual-port memory per level.

The queue models that hardware:

- logical behaviour is exact EDF (delegated to a binary heap -- the
  pipelined hardware computes the same order);
- **timing**: the head ``front`` reads only reflects operations
  that have *settled*, i.e. were issued at least ``depth`` cycles ago.
  An arbitration decision made while an earlier-deadline insert is still
  rippling through the pipeline will miss it;
- **cost accounting**: levels (= comparators/memories) required for the
  buffer's capacity in packets (``levels_for``), and per-operation
  cycle occupancy.

With ``settle_cycles=0`` the structure degenerates to the abstract
ideal heap, which is how the unit tests pin the logical behaviour.

It is an oracle of ``ideal`` and not a fifth architecture because nothing
tells the two apart: on ``tiny``, over seeds 1-5, the Student-t ci95 of
the paired per-seed ratio ``ideal-pipelined``/``ideal`` of every class's
mean latency contains 1
(``tests/core/test_pipelined_heap.py::TestArchitecturePreset::
test_full_fabric_run_matches_ideal_closely``).  The settle window is real
-- no seed's results are identical -- but it cannot be seen in them.

The preset's queues read the clock of the engine they run on, and the
switch hands a queue no clock, so the preset is bound to an
:class:`EngineClock`: an engine factory that makes each run's engine and
reads the newest one's ``now``.  Pass it as ``run_experiment(
engine_factory=...)`` or call it for ``Fabric(engine=...)``.
:func:`engine_factory_for` does both jobs by preset name, registering the
preset in ``ARCHITECTURES`` for one test.

The staging pipeline is a plain list, not a deque.  Removing a list's
head moves the pointers behind it, but staging holds at most the VOQ's
packets, which the upstream link's per-VC credit budget bounds (8 KB, a
handful of packets, in the paper's configuration); an empty deque costs
760 bytes up front in every materialised VOQ.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator, Optional

from repro.core.arbiter import EDFPicker
from repro.core.architectures import ARCHITECTURES, Architecture
from repro.core.queues.base import DeadlineTagged, PacketQueue
from repro.sim.engine import Engine

__all__ = [
    "ARCHITECTURE_NAMES",
    "EngineClock",
    "NAME",
    "PipelinedHeapQueue",
    "engine_factory_for",
    "ideal_pipelined",
]

#: The preset's name, as ``--arch`` accepted it.
NAME = "ideal-pipelined"
#: The paper's four presets and this oracle: what every whole-run test
#: that covers each architecture is parametrized over.
ARCHITECTURE_NAMES = sorted([*ARCHITECTURES, NAME])


class PipelinedHeapQueue(PacketQueue):
    """Exact-EDF heap with a settle-time window modeling pipeline depth.

    ``now_fn`` supplies the current cycle (the preset wires it to the
    engine's ``now`` through :class:`EngineClock`).  ``depth`` is the
    number of heap levels; inserts issued fewer than ``settle_cycles``
    ( = ``depth`` by default) ago are *not yet visible* to ``front``, a
    property because the head depends on the clock.

    Pops always remove the visible minimum (extraction hardware replays
    from the root, which is always valid).
    """

    __slots__ = ("_heap", "_staging", "now_fn", "depth", "settle_cycles")

    def __init__(
        self,
        *,
        now_fn: Optional[Callable[[], int]] = None,
        depth: int = 16,
        settle_cycles: Optional[int] = None,
    ):
        if depth < 1:
            raise ValueError(f"heap depth must be >= 1, got {depth}")
        self._heap: list[tuple[int, int, DeadlineTagged]] = []
        #: inserts still rippling down the pipeline: (visible_at, pkt)
        self._staging: list[tuple[int, DeadlineTagged]] = []
        self.now_fn = now_fn or (lambda: 0)
        self.depth = depth
        self.settle_cycles = depth if settle_cycles is None else settle_cycles

    # ------------------------------------------------------------------
    def _now(self) -> int:
        return self.now_fn()

    def _absorb_settled(self) -> None:
        now = self._now()
        staging = self._staging
        while staging and staging[0][0] <= now:
            _, pkt = staging.pop(0)
            heapq.heappush(self._heap, (pkt.deadline, pkt.uid, pkt))

    # ------------------------------------------------------------------
    def push(self, pkt: DeadlineTagged) -> None:
        if self.settle_cycles:
            self._staging.append((self._now() + self.settle_cycles, pkt))
        else:
            heapq.heappush(self._heap, (pkt.deadline, pkt.uid, pkt))

    @property
    def front(self) -> Optional[DeadlineTagged]:
        self._absorb_settled()
        if self._heap:
            return self._heap[0][2]
        # Nothing settled: hardware would bypass the pipeline for an
        # empty heap (the root register is free), so expose the oldest
        # in-flight insert rather than stalling the port entirely.
        if self._staging:
            return self._staging[0][1]
        return None

    def pop(self) -> DeadlineTagged:
        self._absorb_settled()
        if self._heap:
            _, _, pkt = heapq.heappop(self._heap)
        elif self._staging:
            _, pkt = self._staging.pop(0)
        else:
            raise IndexError("pop from empty PipelinedHeapQueue")
        return pkt

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap) + len(self._staging)

    def __iter__(self) -> Iterator[DeadlineTagged]:
        for _, _, pkt in self._heap:
            yield pkt
        for _, pkt in self._staging:
            yield pkt

    # ------------------------------------------------------------------
    # hardware cost model
    # ------------------------------------------------------------------
    @property
    def unsettled(self) -> int:
        """Inserts still in the pipeline (not yet schedulable)."""
        self._absorb_settled()
        return len(self._staging)

    @staticmethod
    def levels_for(capacity_packets: int) -> int:
        """Heap levels (= pipeline stages = comparators) for a capacity."""
        if capacity_packets < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_packets}")
        return max(1, math.ceil(math.log2(capacity_packets + 1)))


class EngineClock:
    """An engine factory whose newest engine is the preset's clock.

    A run makes its engine before its first VOQ and finishes before the
    next run makes one, so the newest engine is the one whose fabric holds
    the queue that reads it.
    """

    __slots__ = ("engine",)

    def __init__(self) -> None:
        self.engine: Optional[Engine] = None

    def __call__(self) -> Engine:
        self.engine = Engine()
        return self.engine

    def now(self) -> int:
        return self.engine.now


def ideal_pipelined(clock: EngineClock) -> Architecture:
    """Ideal realized by the pipelined heap, its settle window on ``clock``.

    Depth 8 covers 8 KB of minimum-size packets; one level settles per
    simulated nanosecond.
    """
    return Architecture(
        name=NAME,
        label="Ideal (pipelined heap)",
        queue_factory=lambda: PipelinedHeapQueue(now_fn=clock.now, depth=8),
        picker_factory=EDFPicker,
        host_edf=True,
    )


def engine_factory_for(monkeypatch, name: str) -> Callable[[], Engine]:
    """The engine factory a run of preset ``name`` needs.

    A shipped preset runs on a plain :class:`Engine`.  For :data:`NAME`,
    the oracle preset is registered in ``ARCHITECTURES`` (undone by
    ``monkeypatch`` after the test), bound to the :class:`EngineClock`
    returned: every fabric that runs it must take its engine from there.
    """
    if name != NAME:
        return Engine
    clock = EngineClock()
    monkeypatch.setitem(ARCHITECTURES, NAME, ideal_pipelined(clock))
    return clock
