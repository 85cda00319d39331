"""A pipelined-heap buffer (Ioannou & Katevenis, ICC 2001 -- the paper's [9]).

The paper's *Ideal* architecture assumes a buffer that always exposes
the minimum-deadline packet.  The hardware the authors cite for that is
the **pipelined heap**: a binary heap laid out one level per pipeline
stage, so an insert or extract occupies each level for one cycle and a
new operation can enter every cycle -- full throughput, but each
operation still takes ``depth`` cycles to settle, and the structure
needs one comparator + one dual-port memory per level.

This module models that hardware faithfully enough to answer the
question the paper raises (is it affordable?):

- logical behaviour is exact EDF (delegated to a binary heap -- the
  pipelined hardware computes the same order);
- **timing**: the head ``front`` reads only reflects operations
  that have *settled*, i.e. were issued at least ``depth`` cycles ago.
  An arbitration decision made while an earlier-deadline insert is still
  rippling through the pipeline will miss it -- a real, measurable
  source of scheduling error that the ideal abstraction hides;
- **cost accounting**: levels (= comparators/memories) required for the
  buffer's capacity in packets (``levels_for``), and per-operation
  cycle occupancy.

With ``settle_cycles=0`` the structure degenerates to the abstract
ideal heap, which is how the unit tests pin the logical behaviour.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Iterator, Optional

from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["PipelinedHeapQueue"]


class PipelinedHeapQueue(PacketQueue):
    """Exact-EDF heap with a settle-time window modeling pipeline depth.

    ``now_fn`` supplies the current cycle (wire it to ``engine.now`` --
    the fabric does this via the architecture factory).  ``depth`` is the
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
        self._staging: deque[tuple[int, DeadlineTagged]] = deque()
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
            _, pkt = staging.popleft()
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
            _, pkt = self._staging.popleft()
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
