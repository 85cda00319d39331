"""The list-backed queues against their deque-backed originals.

``FifoQueue``, ``TakeOverQueue`` and ``PipelinedHeapQueue`` keep their
FIFOs in plain lists; :mod:`tests.core.deque_queues` keeps the same
classes as they were with ``collections.deque``.  Each test drives a
shipped queue and its deque twin with one random sequence of pushes,
pops, clock ticks and -- for the take-over pair -- a corruption that
puts a packet in U behind the queue's back, and after every step
requires the same popped packet, ``front``, ``len``, iteration order,
L/U snapshots, ``takeover_hits`` and raised exception.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import InvariantViolation
from repro.core.queues import FifoQueue, PipelinedHeapQueue, TakeOverQueue
from tests.core import deque_queues
from tests.core.test_pipelined_heap import FakeClock
from tests.helpers import mkpkt

#: push (deadline, size) -- few values, so deadlines tie -- or pop,
#: advance the clock, or append straight to U (breaking Lemma 1).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 6), st.integers(1, 3)),
        st.just(("pop",)),
        st.tuples(st.just("tick"), st.integers(1, 5)),
        st.tuples(st.just("corrupt"), st.integers(0, 6)),
    ),
    max_size=80,
)


def outcome(step):
    """What one step did: ``("ok", result)`` or the exception it raised.
    An empty list and an empty deque word their ``IndexError`` apart, so
    that is compared by type; every other exception by type and text."""
    try:
        return "ok", step()
    except IndexError:
        return "raised", IndexError
    except InvariantViolation as exc:
        return "raised", (InvariantViolation, str(exc))


def assert_same_state(shipped, oracle):
    # storage first: reading a pipelined heap's front absorbs settled inserts
    assert list(shipped) == list(oracle)
    assert len(shipped) == len(oracle)
    if isinstance(shipped, TakeOverQueue):
        assert shipped.ordered_snapshot == oracle.ordered_snapshot
        assert shipped.takeover_snapshot == oracle.takeover_snapshot
        assert shipped.takeover_hits == oracle.takeover_hits
    assert outcome(lambda: shipped.front) == outcome(lambda: oracle.front)


def replay(shipped, oracle, ops, clock):
    assert_same_state(shipped, oracle)
    for uid, op in enumerate(ops):
        if op[0] == "push":
            pkt = mkpkt(op[1], uid=uid, size=op[2])
            assert outcome(lambda: shipped.push(pkt)) == outcome(lambda: oracle.push(pkt))
        elif op[0] == "pop":
            assert outcome(shipped.pop) == outcome(oracle.pop)
        elif op[0] == "tick":
            clock.now += op[1]
        elif isinstance(shipped, TakeOverQueue):
            pkt = mkpkt(op[1], uid=uid)
            shipped._upper.append(pkt)
            oracle._upper.append(pkt)
        assert_same_state(shipped, oracle)


@settings(max_examples=300, deadline=None)
@given(ops=operations)
def test_fifo_matches_the_deque_fifo(ops):
    replay(FifoQueue(), deque_queues.FifoQueue(), ops, FakeClock())


@settings(max_examples=300, deadline=None)
@given(ops=operations)
def test_takeover_matches_the_deque_takeover(ops):
    replay(TakeOverQueue(), deque_queues.TakeOverQueue(), ops, FakeClock())


@settings(max_examples=300, deadline=None)
@given(ops=operations, depth=st.integers(1, 4), settle=st.sampled_from([None, 0, 1, 3]))
def test_pipelined_heap_matches_the_deque_pipelined_heap(ops, depth, settle):
    clock = FakeClock()
    shipped = PipelinedHeapQueue(now_fn=clock, depth=depth, settle_cycles=settle)
    oracle = deque_queues.PipelinedHeapQueue(now_fn=clock, depth=depth, settle_cycles=settle)
    replay(shipped, oracle, ops, clock)
    assert shipped.unsettled == oracle.unsettled
