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

L and U are plain lists, not deques.  Removing a list's head moves the
pointers behind it, but the two FIFOs together hold at most the per-VC
credit budget of the upstream link (8 KB, a handful of packets, in the
paper's configuration), so that is a few pointers; an empty deque costs
760 bytes up front, and a switch materialises one pair per
``(input, output, VC)`` it uses.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional

from repro.core.invariants import InvariantViolation
from repro.core.queues.base import DeadlineTagged, PacketQueue

__all__ = ["TakeOverQueue"]


class TakeOverQueue(PacketQueue):
    """Ordered FIFO *L* plus take-over FIFO *U* behind one dequeue head.

    The two queues "can dynamically take all the memory allowed for the
    VC" (Section 3.4's appendix note): their space is the one per-VC
    credit budget of the upstream link, not split between L and U.
    """

    __slots__ = ("_lower", "_upper", "takeover_hits", "front")

    def __init__(self):
        self._lower: list[DeadlineTagged] = []  # L, the ordered queue
        self._upper: list[DeadlineTagged] = []  # U, the take-over queue
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
            del upper[0]
        else:
            del lower[0]
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
