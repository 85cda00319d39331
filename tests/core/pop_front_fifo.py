"""Test oracle: the FIFO as it was when ``pop`` removed the list's first item.

:class:`FifoQueue` is the shipped class's body from before it kept a head
index (``pop`` was ``items.pop(0)``, which moves every pointer behind the
head: O(length) per pop on a FIFO host's unbounded injection queue), kept
verbatim so ``tests/core/test_fifo_head_index.py`` can drive the shipped
queue and this twin through the same operations and require the same
packets, heads, lengths and order.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["FifoQueue"]


class FifoQueue(PacketQueue):
    """First-in first-out packet buffer."""

    __slots__ = ("_items", "front")

    def __init__(self):
        self._items: list[DeadlineTagged] = []
        self.front: Optional[DeadlineTagged] = None

    def push(self, pkt: DeadlineTagged) -> None:
        self._items.append(pkt)
        if self.front is None:
            self.front = pkt

    def pop(self) -> DeadlineTagged:
        items = self._items
        pkt = items.pop(0)
        self.front = items[0] if items else None
        return pkt

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[DeadlineTagged]:
        return iter(self._items)
