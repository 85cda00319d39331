"""A queue's ``front`` is its head, whatever keeps it.

The arbiter and the host NIC read a head as the ``front`` field.  The
FIFO, heap and take-over queues keep that slot current in ``push`` and
``pop``; every other queue inherits ``front`` as a property over
``head()``, and so do the test subclasses whose head depends on outside
state or whose ``push`` does not keep the slot.  For every queue class,
after any sequence of pushes, pops, clock ticks and credit changes,
``q.front is q.head()`` and ``q.front`` is None exactly when the queue is
empty.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import CostCounters, _CountingQueue
from repro.core.invariants import InvariantViolation
from repro.core.queues import EDFHeapQueue, FifoQueue, PipelinedHeapQueue, TakeOverQueue
from repro.network.switch import _UNUSED
from tests.core.test_pipelined_heap import FakeClock
from tests.core.test_takeover_bounded_hazard import BoundedUTakeOverQueue
from tests.core.test_takeover_credit_rule import Credits, UnsafeTakeOverQueue
from tests.core.test_takeover_properties import TupleTakeOverQueue
from tests.helpers import mkpkt


class World:
    """The outside state a head may depend on: a clock and a credit window."""

    def __init__(self):
        self.clock = FakeClock()
        self.credits = Credits()
        self.credits.available = 2048


FACTORIES = {
    "fifo": lambda world: FifoQueue(),
    "edf-heap": lambda world: EDFHeapQueue(),
    "takeover": lambda world: TakeOverQueue(),
    "pipelined-heap": lambda world: PipelinedHeapQueue(now_fn=world.clock, depth=4),
    "counting-fifo": lambda world: _CountingQueue(FifoQueue(), CostCounters()),
    "counting-takeover": lambda world: _CountingQueue(TakeOverQueue(), CostCounters()),
    "unsafe-takeover": lambda world: UnsafeTakeOverQueue(world.credits),
    "bounded-u-takeover": lambda world: BoundedUTakeOverQueue(max_takeover=2),
    "tuple-takeover": lambda world: TupleTakeOverQueue(),
}

#: push (deadline, size) -- few values, so deadlines tie -- or pop,
#: advance the clock, or set the credit window.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 6), st.integers(1, 3)),
        st.just(("pop",)),
        st.tuples(st.just("tick"), st.integers(1, 5)),
        st.tuples(st.just("credits"), st.integers(0, 3)),
    ),
    max_size=60,
)


def assert_front_is_head(queue):
    assert queue.front is queue.head()
    assert (queue.front is None) == (len(queue) == 0)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_front_is_the_head_after_any_sequence(kind, ops):
    world = World()
    queue = FACTORIES[kind](world)
    assert_front_is_head(queue)
    for uid, op in enumerate(ops):
        if op[0] == "push":
            _, deadline, size = op
            try:
                queue.push(mkpkt(deadline, uid=uid, size=size))
            except InvariantViolation:
                # Only the masking queue can get here: popping L's head
                # around U's leaves packets only in U (Lemma 1 broken),
                # which the shipped push refuses.
                assert kind == "unsafe-takeover"
                return
        elif op[0] == "pop":
            if len(queue):
                assert queue.pop() is not None
        elif op[0] == "tick":
            world.clock.now += op[1]
        else:
            world.credits.available = op[1]
        assert_front_is_head(queue)


def test_unused_voq_placeholder_has_no_front():
    assert_front_is_head(_UNUSED)
    assert _UNUSED.front is None
    with pytest.raises(TypeError):
        _UNUSED.push(mkpkt(1))
    assert_front_is_head(_UNUSED)


@pytest.mark.parametrize("kind", ["fifo", "edf-heap", "takeover"])
def test_field_keeping_queues_hold_front_in_a_slot(kind):
    """The three queues on the hot path keep ``front`` as a slot, not a
    property: reading it runs no Python frame."""
    cls = type(FACTORIES[kind](World()))
    assert "front" in cls.__slots__
    assert not isinstance(getattr(cls, "front"), property)
