"""Plain FIFO buffer.

This is what real high-speed switch ports implement (strict arrival
order, single read port).  Under an EDF head-arbiter it yields the
paper's *Simple 2 VCs* architecture: the head is simply the oldest
packet, so *order errors* (a high-deadline packet in front of later
low-deadline arrivals) are possible and cost ~25% extra latency for the
most demanding flows (Section 3.4).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["FifoQueue"]


class FifoQueue(PacketQueue):
    """First-in first-out packet buffer."""

    __slots__ = ("_items", "front")

    def __init__(self):
        self._items: deque[DeadlineTagged] = deque()
        self.front: Optional[DeadlineTagged] = None

    def push(self, pkt: DeadlineTagged) -> None:
        self._items.append(pkt)
        if self.front is None:
            self.front = pkt

    def pop(self) -> DeadlineTagged:
        items = self._items
        pkt = items.popleft()
        self.front = items[0] if items else None
        return pkt

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[DeadlineTagged]:
        return iter(self._items)
