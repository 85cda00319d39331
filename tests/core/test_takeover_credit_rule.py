"""Why only the minimum-deadline head may be checked for credits.

The appendix's flow-control remark: when the take-over pair's candidate
does not fit the downstream credits, the *other* FIFO's head must not be
offered instead -- that "would corrupt the dequeuing discipline".  A
conventional request-grant arbiter masks credit-less candidates, so the
rule is a real constraint on the EDF architectures (``core/arbiter.py``:
their switch calls ``pick`` without a credit ``budget``).  This test
builds the forbidden discipline and shows the corruption is out-of-order
delivery within a flow; the shipped queue, driven the way ``Switch``
drives it (its head, one credit check, ``pop()``), never reorders
(Theorem 3).
"""

import random

import pytest

from repro.core.queues import TakeOverQueue
from tests.helpers import mkpkt

WINDOW = 2048  # byte credits downstream; the largest packet below is 2000


class Credits:
    available = WINDOW


class UnsafeTakeOverQueue(TakeOverQueue):
    """Masks like a conventional arbiter: if the minimum-deadline head
    does not fit the credits, expose the other FIFO's head.

    Its head depends on outside state (the credits), so ``front`` is a
    property (the inherited ``push`` writes to it, and those writes are
    dropped), and ``pop`` takes that head out without the shipped refresh
    (whose Lemma 1 check this discipline is built to break)."""

    def __init__(self, credits: Credits):
        super().__init__()
        self.credits = credits

    @property
    def front(self):
        # both FIFO heads in deadline order (not the shipped rule: once L
        # has been drained past U, that trips Lemma 1's invariant)
        heads = sorted(
            (fifo[0] for fifo in (self._lower, self._upper) if fifo),
            key=lambda pkt: (pkt.deadline, pkt.uid),
        )
        fitting = [pkt for pkt in heads if pkt.size <= self.credits.available]
        return (fitting or heads or [None])[0]

    @front.setter
    def front(self, _value):
        pass

    def pop(self):
        pkt = self.front
        if pkt is None:
            raise IndexError("pop from empty UnsafeTakeOverQueue")
        upper = self._upper
        del (upper if upper and pkt is upper[0] else self._lower)[0]
        return pkt


def departures(make_queue, arrivals, refill):
    """Queue ``arrivals`` = (flow, seq, deadline, size), drain them under
    the credit window (``refill`` bytes return per round); the sequence
    numbers each flow left in."""
    credits = Credits()
    queue = make_queue(credits)
    for flow, seq, deadline, size in arrivals:
        queue.push(mkpkt(deadline, size=size, tclass=flow, seq=seq))
    left = {}
    while queue:
        head = queue.front
        if head.size <= credits.available:
            assert queue.pop() is head
            credits.available -= head.size
            left.setdefault(head.tclass, []).append(head.seq)
        credits.available = min(WINDOW, credits.available + refill)
    return left


def shipped(_credits):
    return TakeOverQueue()


#: Flow F's first packet is big and overtakes into U; its second is small
#: and joins L.  ``drain`` leaves the window too short for the big one.
SCENARIO = [
    ("drain", 0, 50, 1500),
    ("other", 0, 500, 256),  # seeds the ordered queue
    ("F", 0, 100, 2000),  # minimum deadline, does not fit -> must block
    ("F", 1, 550, 128),  # fits, and must still wait behind it
]


def soak_arrivals(seed=1, count=400):
    rng = random.Random(seed)
    clock = dict.fromkeys("ABCD", 0)
    sent = dict.fromkeys("ABCD", 0)
    arrivals = []
    for _ in range(count):
        flow = rng.choice("ABCD")
        clock[flow] += rng.randint(1, 120)  # Eq. 1: per-flow deadlines increase
        arrivals.append((flow, sent[flow], clock[flow], rng.choice((128, 512, 2000))))
        sent[flow] += 1
    return arrivals


def reorderings(left):
    return sum(b < a for seqs in left.values() for a, b in zip(seqs, seqs[1:]))


class TestCreditRule:
    def test_masking_reorders_flow_f(self):
        assert departures(UnsafeTakeOverQueue, SCENARIO, 600)["F"] == [1, 0]

    def test_shipped_queue_blocks_behind_the_minimum_deadline_head(self):
        assert departures(shipped, SCENARIO, 600)["F"] == [0, 1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_soak(self, seed):
        arrivals = soak_arrivals(seed)
        assert reorderings(departures(shipped, arrivals, 700)) == 0
        assert reorderings(departures(UnsafeTakeOverQueue, arrivals, 700)) > 0
