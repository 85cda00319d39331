"""Test oracle: the switch queue disciplines as they were when every FIFO
was a ``collections.deque``.

:class:`FifoQueue`, :class:`TakeOverQueue` and :class:`PipelinedHeapQueue`
are the shipped classes' bodies from before their FIFOs became plain
lists (a list costs 56 bytes empty, a deque 760), kept verbatim so
``tests/core/test_list_queue_differential.py`` can drive each shipped
queue and its deque twin through the same operations and require the
same packets, heads, order, snapshots, counters and exceptions.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import chain
from typing import Callable, Iterator, Optional

from repro.core.invariants import InvariantViolation
from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["FifoQueue", "PipelinedHeapQueue", "TakeOverQueue"]


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


class TakeOverQueue(PacketQueue):
    """Ordered FIFO *L* plus take-over FIFO *U* behind one dequeue head.

    The two queues "can dynamically take all the memory allowed for the
    VC" (Section 3.4's appendix note): their space is the one per-VC
    credit budget of the upstream link, not split between L and U.
    """

    __slots__ = ("_lower", "_upper", "takeover_hits", "front")

    def __init__(self):
        self._lower: deque[DeadlineTagged] = deque()  # L, the ordered queue
        self._upper: deque[DeadlineTagged] = deque()  # U, the take-over queue
        #: How many arrivals went to U (deadline below L's tail) -- the
        #: paper's measure of how often take-over actually pays off.  A
        #: bare int bump, cheap enough to keep even with metrics off.
        self.takeover_hits = 0
        self.front: Optional[DeadlineTagged] = None

    # -- enqueuing (appendix Definition 1) ---------------------------------
    def push(self, pkt: DeadlineTagged) -> None:
        lower = self._lower
        if not lower and not self._upper:
            lower.append(pkt)
            self.front = pkt
        elif lower and pkt.deadline >= lower[-1].deadline:
            lower.append(pkt)  # behind L's head: the front cannot change
        else:
            # Lemma 1 guarantees L is never empty while U holds packets, so
            # reaching here with an empty L would mean the invariant broke.
            if not lower:
                raise InvariantViolation("take-over queue occupied while ordered queue empty")
            upper = self._upper
            upper.append(pkt)
            self.takeover_hits += 1
            if upper[0] is pkt:
                # A new U head: it overtakes L's head (the front until now)
                # when it wins the (deadline, uid) order.
                front = self.front
                deadline = pkt.deadline
                if deadline < front.deadline or (
                    deadline == front.deadline and pkt.uid < front.uid
                ):
                    self.front = pkt

    # -- dequeuing (appendix Definition 2) ----------------------------------
    def pop(self) -> DeadlineTagged:
        # Through ``front``, never around it: a subclass that makes
        # ``front`` a property of its own decides what leaves.
        pkt = self.front
        if pkt is None:
            raise IndexError("pop from empty TakeOverQueue")
        lower = self._lower
        upper = self._upper
        if upper and pkt is upper[0]:
            upper.popleft()
        else:
            lower.popleft()
        # The refresh: the smaller of the two new FIFO heads in (deadline,
        # uid) order -- the uid tie-break (arrival order) keeps equal
        # deadlines FIFO -- with Lemma 1's check.
        if not upper:
            self.front = lower[0] if lower else None
        elif not lower:
            raise InvariantViolation("Lemma 1 violated: packets only in take-over queue")
        else:
            l_head = lower[0]
            u_head = upper[0]
            u_deadline = u_head.deadline
            l_deadline = l_head.deadline
            if u_deadline < l_deadline or (u_deadline == l_deadline and u_head.uid < l_head.uid):
                self.front = u_head
            else:
                self.front = l_head
        return pkt

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lower) + len(self._upper)

    def __iter__(self) -> Iterator[DeadlineTagged]:
        return chain(self._lower, self._upper)

    @property
    def ordered_snapshot(self) -> tuple[DeadlineTagged, ...]:
        """Contents of L, front to back (for invariant tests)."""
        return tuple(self._lower)

    @property
    def takeover_snapshot(self) -> tuple[DeadlineTagged, ...]:
        """Contents of U, front to back (for invariant tests)."""
        return tuple(self._upper)


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
