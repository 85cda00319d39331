"""Plain FIFO buffer.

This is what real high-speed switch ports implement (strict arrival
order, single read port).  Under an EDF head-arbiter it yields the
paper's *Simple 2 VCs* architecture: the head is simply the oldest
packet, so *order errors* (a high-deadline packet in front of later
low-deadline arrivals) are possible and cost ~25% extra latency for the
most demanding flows (Section 3.4).

The buffer is a plain list, not a deque: an empty deque costs 760 bytes
up front, and a switch materialises one queue per ``(input, output, VC)``
it uses.  A VOQ holds at most what the upstream link's per-VC credit
budget lets in (8 KB, a handful of packets, in the paper's
configuration), but a FIFO host's injection queue has no credit bound:
it grows while offered load exceeds the link (16 896 packets after 20 ms
at load 1.0 on ``small``), and removing a list's first item moves every
pointer behind it.  So ``pop`` advances a head index instead, and
compacts the list only when the queue drains or the dead prefix reaches
half of it: each packet is moved at most once on average, whatever the
queue's length.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["FifoQueue"]


class FifoQueue(PacketQueue):
    """First-in first-out packet buffer."""

    __slots__ = ("_items", "_head", "front")

    def __init__(self):
        self._items: list[DeadlineTagged] = []
        #: Index of the head in ``_items``; the packets before it are popped.
        self._head = 0
        self.front: Optional[DeadlineTagged] = None

    def push(self, pkt: DeadlineTagged) -> None:
        self._items.append(pkt)
        if self.front is None:
            self.front = pkt

    def pop(self) -> DeadlineTagged:
        items = self._items
        head = self._head
        pkt = items[head]
        head += 1
        if head + head < len(items):
            self._head = head
            self.front = items[head]
        else:  # drained, or the dead prefix is half the list: compact
            del items[:head]
            self._head = 0
            self.front = items[0] if items else None
        return pkt

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __iter__(self) -> Iterator[DeadlineTagged]:
        return islice(self._items, self._head, None)
