"""The ordered/take-over queue pair (Section 3.4 and the appendix).

Two FIFOs share one buffer budget:

- **L**, the *ordered queue*: packets whose deadline is >= the deadline
  of L's current tail are appended here, so L stays sorted
  (appendix Theorem 1).
- **U**, the *take-over queue*: packets that arrive with a deadline
  *smaller* than L's tail go here; they get a chance to overtake the
  high-deadline packets already queued in L.

Dequeue (appendix Definition 2) offers the smaller-deadline of the two
FIFO heads.  Crucially, the flow-control rule from the appendix applies:
**only that one candidate is checked for credits** -- if it does not fit
downstream, the other head must not sneak past it, or the no-reordering
proof breaks.  The switch honours this by only ever reading the head
(the ``front`` slot, kept current by ``push``/``pop``) and transmitting
exactly that packet.

The appendix proves (Theorems 1-3, Lemma 1) that this structure never
delivers packets of one flow out of order, given the sender-side
guarantees of Eq. 1-2 (per-flow deadlines strictly increase and packets
arrive in order).  Those theorems are verified as executable invariants
by ``tests/core/test_takeover_properties.py``.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterator, Optional

from repro.core.invariants import InvariantViolation
from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["TakeOverQueue"]


class TakeOverQueue(PacketQueue):
    """Ordered FIFO *L* plus take-over FIFO *U* behind one dequeue head.

    The two queues "can dynamically take all the memory allowed for the
    VC" (Section 3.4's appendix note), so capacity is tracked jointly.
    """

    __slots__ = ("_lower", "_upper", "takeover_hits", "front")

    def __init__(self, capacity_bytes: Optional[int] = None):
        super().__init__(capacity_bytes)
        self._lower: deque[DeadlineTagged] = deque()  # L, the ordered queue
        self._upper: deque[DeadlineTagged] = deque()  # U, the take-over queue
        #: How many arrivals went to U (deadline below L's tail) -- the
        #: paper's measure of how often take-over actually pays off.  A
        #: bare int bump, cheap enough to keep even with metrics off.
        self.takeover_hits = 0
        self.front: Optional[DeadlineTagged] = None

    # -- enqueuing (appendix Definition 1) ---------------------------------
    def push(self, pkt: DeadlineTagged) -> None:
        if self.capacity_bytes is None:
            self.used_bytes += pkt.size
        else:
            self._charge(pkt)
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
    def head(self) -> Optional[DeadlineTagged]:
        lower = self._lower
        if not lower:
            if self._upper:
                raise InvariantViolation("Lemma 1 violated: packets only in take-over queue")
            return None
        upper = self._upper
        if not upper:
            return lower[0]
        l_head = lower[0]
        u_head = upper[0]
        # (deadline, uid) order, field by field: the uid tie-break (arrival
        # order) keeps equal deadlines FIFO.
        u_deadline = u_head.deadline
        l_deadline = l_head.deadline
        if u_deadline < l_deadline or (u_deadline == l_deadline and u_head.uid < l_head.uid):
            return u_head
        return l_head

    def pop(self) -> DeadlineTagged:
        # Through ``front``, never around it: a subclass that hands
        # ``front`` back to its own head() decides what leaves.
        pkt = self.front
        if pkt is None:
            raise IndexError("pop from empty TakeOverQueue")
        lower = self._lower
        upper = self._upper
        if upper and pkt is upper[0]:
            upper.popleft()
        else:
            lower.popleft()
        # The refresh: head()'s rule on the two new FIFO heads, Lemma 1's
        # check included.
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
        self.used_bytes -= pkt.size
        if self.used_bytes < 0:
            raise InvariantViolation("queue byte accounting went negative")
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
