"""Exact-EDF heap buffer (the paper's *Ideal* reference architecture).

Always exposes the stored packet with the smallest deadline, breaking
ties by arrival order (uid) so equal-deadline packets of one flow cannot
reorder.  The paper considers this unimplementable at high link rates and
radix (it corresponds to the pipelined-heap hardware of Ioannou &
Katevenis [9]); it serves as the upper bound the FIFO-based proposals are
measured against.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.core.invariants import InvariantViolation
from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["EDFHeapQueue"]


class EDFHeapQueue(PacketQueue):
    """Priority queue ordered by ``(deadline, uid)``."""

    __slots__ = ("_heap",)

    def __init__(self, capacity_bytes: Optional[int] = None):
        super().__init__(capacity_bytes)
        self._heap: list[tuple[int, int, DeadlineTagged]] = []

    def push(self, pkt: DeadlineTagged) -> None:
        if self.capacity_bytes is None:
            self.used_bytes += pkt.size
        else:
            self._charge(pkt)
        heapq.heappush(self._heap, (pkt.deadline, pkt.uid, pkt))

    def pop(self) -> DeadlineTagged:
        _, _, pkt = heapq.heappop(self._heap)
        self.used_bytes -= pkt.size
        if self.used_bytes < 0:
            raise InvariantViolation("queue byte accounting went negative")
        return pkt

    def head(self) -> Optional[DeadlineTagged]:
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[DeadlineTagged]:
        return (entry[2] for entry in self._heap)
