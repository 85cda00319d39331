"""Property-based verification of the appendix's theorems.

The paper proves four results about the ordered/take-over queue pair
(Definitions 1-2): Theorem 1 (the L queue is deadline-sorted), Theorem 2
(the system's maximum deadline sits at L's tail), Lemma 1 (packets never
exist only in U), and Theorem 3 (no out-of-order delivery within a flow,
given senders that emit in-order with strictly increasing deadlines --
hypotheses Eq. 1-2).

Here hypothesis generates thousands of adversarial arrival/departure
interleavings and checks each theorem as an executable invariant after
every operation.  Theorems 1, 2 and Lemma 1 are *structural*: they must
hold for arbitrary arrival deadlines, so that group draws unconstrained
deadlines.  Theorem 3's guarantee is conditional on Eq. 1-2, so that
test generates per-flow increasing deadline chains and interleaves flows
arbitrarily.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import invariant
from repro.core.queues import EDFHeapQueue, TakeOverQueue
from tests.helpers import mkpkt

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

#: arbitrary arrival deadlines interleaved with pops: True = pop (if any)
ops_any = st.lists(
    st.one_of(st.integers(0, 200), st.just("pop")),
    min_size=0,
    max_size=60,
)


@st.composite
def flow_interleavings(draw):
    """Arrivals from several flows satisfying Eq. 1-2, plus pop points.

    Returns a list of ('push', flow_id, deadline) / ('pop',) operations in
    which each flow's packets appear in increasing-deadline order.
    """
    n_flows = draw(st.integers(1, 4))
    chains = []
    for flow_id in range(n_flows):
        length = draw(st.integers(0, 12))
        start = draw(st.integers(0, 50))
        increments = draw(
            st.lists(st.integers(1, 40), min_size=length, max_size=length)
        )
        deadlines = list(itertools.accumulate(increments, initial=start))[1:]
        chains.append([("push", flow_id, d) for d in deadlines])
    # Interleave the chains: draw a multiset permutation as repeated choice.
    ops = []
    cursors = [0] * n_flows
    remaining = sum(len(c) for c in chains)
    while remaining:
        live = [j for j in range(n_flows) if cursors[j] < len(chains[j])]
        j = live[draw(st.integers(0, len(live) - 1))]
        ops.append(chains[j][cursors[j]])
        cursors[j] += 1
        remaining -= 1
        if draw(st.booleans()):
            ops.append(("pop",))
    # Drain at the end so departure order is total.
    ops.extend([("pop",)] * (sum(len(c) for c in chains) + 2))
    return ops


# ----------------------------------------------------------------------
# structural invariants (Theorems 1-2, Lemma 1): arbitrary deadlines
# ----------------------------------------------------------------------
def check_structural_invariants(queue: TakeOverQueue) -> None:
    lower = queue.ordered_snapshot
    upper = queue.takeover_snapshot
    # Theorem 1: L is deadline-sorted.
    for a, b in zip(lower, lower[1:]):
        assert a.deadline <= b.deadline, "Theorem 1 violated: L not sorted"
    # Lemma 1: U non-empty implies L non-empty.
    if upper:
        assert lower, "Lemma 1 violated: packets only in U"
    # Theorem 2: the maximum deadline is L's tail.
    if lower:
        tail = lower[-1].deadline
        assert all(p.deadline <= tail for p in lower), "Theorem 2 violated in L"
        assert all(p.deadline < tail or p.deadline <= tail for p in upper)
        assert all(p.deadline <= tail for p in upper), "Theorem 2 violated in U"


@settings(max_examples=400)
@given(ops_any)
def test_structural_invariants_hold_under_any_workload(ops):
    queue = TakeOverQueue()
    for op in ops:
        if op == "pop":
            if queue:
                queue.pop()
        else:
            queue.push(mkpkt(op))
        check_structural_invariants(queue)


@settings(max_examples=300)
@given(ops_any)
def test_byte_accounting_never_negative(ops):
    queue = TakeOverQueue()
    expected = 0
    for op in ops:
        if op == "pop":
            if queue:
                expected -= queue.pop().size
        else:
            pkt = mkpkt(op, size=17)
            queue.push(pkt)
            expected += pkt.size
        assert queue.used_bytes == expected >= 0


# ----------------------------------------------------------------------
# Theorem 3: no out-of-order delivery (needs Eq. 1-2)
# ----------------------------------------------------------------------
@settings(max_examples=400)
@given(flow_interleavings())
def test_no_out_of_order_delivery(ops):
    queue = TakeOverQueue()
    arrival_seq: dict[int, int] = {}
    departures: dict[int, list[int]] = {}
    for op in ops:
        if op[0] == "push":
            _, flow_id, deadline = op
            seq = arrival_seq.get(flow_id, 0)
            arrival_seq[flow_id] = seq + 1
            queue.push(mkpkt(deadline, flow_id=flow_id, seq=seq))
        else:
            if queue:
                pkt = queue.pop()
                departures.setdefault(pkt.flow_id, []).append(pkt.seq)
    assert not queue, "drain pops at the end must empty the queue"
    for flow_id, seqs in departures.items():
        assert seqs == sorted(seqs), (
            f"Theorem 3 violated: flow {flow_id} departed in order {seqs}"
        )


@settings(max_examples=300)
@given(flow_interleavings())
def test_takeover_departures_match_edf_heap_no_worse_than_fifo(ops):
    """The take-over queue's dequeue sequence is deadline-wise at least as
    good as FIFO's: the sum of 'sortedness violations' (inversions by
    deadline) in the departure order never exceeds FIFO's."""
    takeover = TakeOverQueue()
    fifo_order = []
    takeover_out = []
    for op in ops:
        if op[0] == "push":
            _, flow_id, deadline = op
            pkt = mkpkt(deadline, flow_id=flow_id)
            takeover.push(pkt)
            fifo_order.append(deadline)
        else:
            if takeover:
                takeover_out.append(takeover.pop().deadline)

    def inversions(seq):
        return sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )

    # The final drain dequeues everything, so compare full sequences.
    assert sorted(takeover_out) == sorted(fifo_order)
    assert inversions(takeover_out) <= inversions(fifo_order)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 64)), max_size=50))
def test_heap_queue_pops_in_exact_deadline_order(entries):
    """The Ideal architecture's buffer is exact EDF with FIFO tie-breaks."""
    queue = EDFHeapQueue()
    pkts = [mkpkt(d, size=s) for d, s in entries]
    for pkt in pkts:
        queue.push(pkt)
    out = [queue.pop() for _ in range(len(pkts))]
    assert [(p.deadline, p.uid) for p in out] == sorted(
        (p.deadline, p.uid) for p in pkts
    )


# ----------------------------------------------------------------------
# head() compares integers; the rule is the (deadline, uid) tuple order
# ----------------------------------------------------------------------
class TupleTakeOverQueue(TakeOverQueue):
    """``head()`` as it was written before it compared integers: two
    ``(deadline, uid)`` tuples.  ``pop`` is inherited and goes through
    this ``head()``."""

    def head(self):
        lower, upper = self._lower, self._upper
        if not lower:
            invariant(not upper, "Lemma 1 violated: packets only in take-over queue")
            return None
        if not upper:
            return lower[0]
        l_head, u_head = lower[0], upper[0]
        if (u_head.deadline, u_head.uid) < (l_head.deadline, l_head.uid):
            return u_head
        return l_head


#: push (deadline, uid, size) -- few values, so deadlines and uids tie -- or pop
ops_with_ties = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(1, 3)),
        st.just("pop"),
    ),
    max_size=60,
)


@settings(max_examples=400)
@given(ops_with_ties)
def test_head_and_pop_match_the_tuple_comparing_reference(ops):
    queue, reference = TakeOverQueue(), TupleTakeOverQueue()
    for op in ops:
        if op == "pop":
            if reference:
                assert queue.pop() is reference.pop()
        else:
            deadline, uid, size = op
            pkt = mkpkt(deadline, uid=uid, size=size)
            queue.push(pkt)
            reference.push(pkt)
        assert queue.head() is reference.head()
        assert queue.ordered_snapshot == reference.ordered_snapshot
        assert queue.takeover_snapshot == reference.takeover_snapshot
        assert queue.used_bytes == sum(pkt.size for pkt in queue)
