"""Tests for the output-port pickers."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.arbiter import EDFPicker, RoundRobinPicker
from repro.core.queues import FifoQueue
from tests.core.scanning_pickers import ScanningEDFPicker, ScanningRoundRobinPicker
from tests.helpers import mkpkt


def queues_with(*deadline_lists, sizes=None):
    """One FIFO per list of deadlines; ``sizes[i]`` sizes queue i's packets."""
    qs = []
    for i, deadlines in enumerate(deadline_lists):
        q = FifoQueue()
        for d in deadlines:
            q.push(mkpkt(d) if sizes is None else mkpkt(d, size=sizes[i]))
        qs.append(q)
    return qs


def backlogged(queues):
    """What the switch maintains incrementally: indices of non-empty queues."""
    return [index for index, queue in enumerate(queues) if len(queue) > 0]


def pick(picker, queues, budget=None):
    return picker.pick(queues, backlogged(queues), budget)


class TestEDFPicker:
    def test_picks_min_deadline_head(self):
        qs = queues_with([30], [10], [20])
        assert pick(EDFPicker(), qs) == 1

    def test_only_heads_are_inspected(self):
        # Queue 0 hides a deadline-1 packet behind its head; the picker must
        # not see it (the paper's implementability constraint).
        qs = queues_with([100, 1], [50])
        assert pick(EDFPicker(), qs) == 1

    def test_skips_empty_queues(self):
        qs = queues_with([], [40], [])
        assert pick(EDFPicker(), qs) == 1

    def test_all_empty_returns_none(self):
        assert pick(EDFPicker(), queues_with([], [])) is None

    def test_tie_breaks_by_arrival_order(self):
        q_late, q_early = FifoQueue(), FifoQueue()
        late = mkpkt(5)
        early_uid_wins = mkpkt(5)
        # mkpkt uid increments globally: 'late' was created first
        q_late.push(late)
        q_early.push(early_uid_wins)
        assert pick(EDFPicker(), [q_early, q_late]) == 1  # older packet wins

    def test_sendable_predicate_filters(self):
        # The credit budget masks every head larger than it.
        qs = queues_with([10], [20], sizes=[600, 200])
        picker = EDFPicker()
        assert pick(picker, qs, budget=600) == 0
        assert pick(picker, qs, budget=599) == 1
        assert pick(picker, qs, budget=199) is None

    def test_granted_is_noop(self):
        EDFPicker().granted(3)  # stateless; must not raise


class TestRoundRobinPicker:
    def test_rotates_after_grant(self):
        qs = queues_with([1], [1], [1])
        picker = RoundRobinPicker()
        order = []
        for _ in range(3):
            idx = pick(picker, qs)
            order.append(idx)
            qs[idx].pop()
            picker.granted(idx)
        assert order == [0, 1, 2]

    def test_pick_without_grant_does_not_advance(self):
        qs = queues_with([1], [1])
        picker = RoundRobinPicker()
        assert pick(picker, qs) == 0
        assert pick(picker, qs) == 0  # no grant, pointer unchanged

    def test_skips_empty_queues(self):
        qs = queues_with([], [7])
        assert pick(RoundRobinPicker(), qs) == 1

    def test_wraps_around(self):
        qs = queues_with([1], [1])
        picker = RoundRobinPicker()
        picker.granted(1)  # pointer now past the last queue
        assert pick(picker, qs) == 0

    def test_deadline_blind(self):
        qs = queues_with([1_000_000], [1])
        assert pick(RoundRobinPicker(), qs) == 0  # ignores deadlines entirely

    def test_empty_candidate_list(self):
        assert RoundRobinPicker().pick([], []) is None

    def test_sendable_predicate(self):
        qs = queues_with([10], [20], sizes=[600, 200])
        picker = RoundRobinPicker()
        assert pick(picker, qs, budget=599) == 1
        assert pick(picker, qs, budget=199) is None

    def test_long_run_fairness(self):
        """Backlogged queues get equal grants over a full rotation cycle."""
        qs = queues_with([1] * 30, [1] * 30, [1] * 30)
        picker = RoundRobinPicker()
        grants = [0, 0, 0]
        for _ in range(30):
            idx = pick(picker, qs)
            qs[idx].pop()
            picker.granted(idx)
            grants[idx] += 1
        assert grants == [10, 10, 10]


class TestAgreesWithScanningOracle:
    """The pickers choose among the listed non-empty queues exactly what a
    poll of every queue would, whatever order the list is in."""

    @given(
        fills=st.lists(
            st.tuples(st.lists(st.integers(0, 5), max_size=3), st.integers(1, 4)),
            min_size=1,
            max_size=8,
        ),
        budget=st.one_of(st.none(), st.integers(0, 4)),
        pointer=st.integers(0, 8),
        shuffle_seed=st.integers(0, 1 << 16),
    )
    def test_same_pick_for_any_list_order(self, fills, budget, pointer, shuffle_seed):
        qs = queues_with(*(deadlines for deadlines, _ in fills), sizes=[s for _, s in fills])
        listed = backlogged(qs)
        random.Random(shuffle_seed).shuffle(listed)
        assert EDFPicker().pick(qs, listed, budget) == ScanningEDFPicker().pick(
            qs, listed, budget
        )
        rr, rr_oracle = RoundRobinPicker(), ScanningRoundRobinPicker()
        rr.granted(pointer - 1)
        rr_oracle.granted(pointer - 1)
        assert rr.pick(qs, listed, budget) == rr_oracle.pick(qs, listed, budget)


class _HeadOnly:
    """A queue reduced to what a picker reads of it: its ``front``."""

    __slots__ = ("front",)

    def __init__(self, pkt):
        self.front = pkt


class TestIntegerComparisonMatchesTuples:
    """``EDFPicker.pick`` compares ``deadline`` and then ``uid`` as
    integers; the rule it implements is the first listed candidate with the
    least ``(deadline, uid)`` tuple -- ties on both fields included, which
    only hand-made uids can produce."""

    @given(
        heads=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(1, 3)),
            min_size=1,
            max_size=10,
        ),
        budget=st.one_of(st.none(), st.integers(1, 3)),
        shuffle_seed=st.integers(0, 1 << 16),
    )
    def test_same_index_as_the_tuple_minimum(self, heads, budget, shuffle_seed):
        qs = [_HeadOnly(mkpkt(d, uid=uid, size=size)) for d, uid, size in heads]
        listed = list(range(len(qs)))
        random.Random(shuffle_seed).shuffle(listed)
        eligible = [i for i in listed if budget is None or qs[i].front.size <= budget]
        expected = min(
            eligible, key=lambda i: (qs[i].front.deadline, qs[i].front.uid), default=None
        )
        assert EDFPicker().pick(qs, listed, budget) == expected
