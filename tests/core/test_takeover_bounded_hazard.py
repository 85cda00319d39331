"""Why the take-over queue must share the VC's whole memory.

The appendix notes that "the two queues can dynamically take all the
memory allowed for the VC and, therefore, it is not possible for a queue
to become full while there is space in the other queue".  That is a real
design constraint, not a footnote: if the take-over FIFO U had its own
bounded memory, an arriving small-deadline packet would have to spill
into the ordered FIFO L, violating Theorem 1 (L's sortedness) -- the
invariant every appendix proof builds on.  This test constructs the
violation on a hypothetical bounded-U variant and shows the shipped
structure is immune by construction.

(Whether the spill policy can also produce end-to-end flow reordering is
harder to settle -- L's FIFO discipline blocks the obvious attacks -- but
losing Theorem 1 already means the design can no longer be *proved*
safe, which is the point.)
"""

from repro.core.queues import PacketQueue, TakeOverQueue
from tests.helpers import mkpkt


class BoundedUTakeOverQueue(TakeOverQueue):
    """Hypothetical hardware with a fixed-size take-over FIFO: overflow
    spills into the ordered queue (it must go somewhere -- the upstream's
    credits were already granted).

    Its ``push`` does not keep the shipped ``front`` slot, so ``front`` is
    the base class's property over :meth:`head` again."""

    front = PacketQueue.front

    def __init__(self, max_takeover: int):
        super().__init__(None)
        self.max_takeover = max_takeover

    def push(self, pkt) -> None:
        self._charge(pkt)
        lower = self._lower
        if lower and pkt.deadline < lower[-1].deadline and len(self._upper) < self.max_takeover:
            self._upper.append(pkt)
        else:
            lower.append(pkt)


class TestBoundedUHazard:
    def test_spill_breaks_theorem_1(self):
        queue = BoundedUTakeOverQueue(max_takeover=1)
        queue.push(mkpkt(1000))
        queue.push(mkpkt(900))  # fills the single U slot
        queue.push(mkpkt(950))  # forced to spill into L
        deadlines = [p.deadline for p in queue.ordered_snapshot]
        assert deadlines != sorted(deadlines)  # Theorem 1 violated

    def test_shipped_structure_preserves_theorem_1(self):
        queue = TakeOverQueue()
        queue.push(mkpkt(1000))
        queue.push(mkpkt(900))
        queue.push(mkpkt(950))
        deadlines = [p.deadline for p in queue.ordered_snapshot]
        assert deadlines == sorted(deadlines)
        assert [p.deadline for p in queue.takeover_snapshot] == [900, 950]

    def test_zero_capacity_u_degenerates_to_plain_fifo(self):
        """With no take-over slots at all, every packet lands in L in
        arrival order -- exactly the Simple architecture's FIFO, i.e. the
        take-over capacity is precisely what separates Advanced from
        Simple."""
        queue = BoundedUTakeOverQueue(max_takeover=0)
        for d in (500, 100, 300):
            queue.push(mkpkt(d))
        assert [queue.pop().deadline for _ in range(3)] == [500, 100, 300]
