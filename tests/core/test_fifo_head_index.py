"""``FifoQueue.pop`` is amortized O(1): it advances a head index.

The differential replays random push/pop runs -- long enough for the
queue to grow, drain and compact many times -- against the FIFO that
removed the list's first item on every pop
(:mod:`tests.core.pop_front_fifo`).  The tripwire counts, without timing
anything, how many stored pointers a drain moves.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import FifoQueue
from tests.core import pop_front_fifo
from tests.helpers import mkpkt

#: pushes outnumber pops two to one, so queues reach tens of packets
operations = st.lists(st.sampled_from(("push", "push", "pop")), max_size=300)


def outcome(step):
    try:
        return "ok", step()
    except IndexError:
        return "raised", IndexError


def assert_same_state(shipped, oracle):
    assert list(shipped) == list(oracle)
    assert len(shipped) == len(oracle)
    assert shipped.front is oracle.front
    # compaction keeps the dead prefix no longer than the live packets
    assert shipped._head <= len(shipped)


@settings(max_examples=300, deadline=None)
@given(ops=operations, drain=st.booleans())
def test_fifo_matches_the_pop_front_fifo(ops, drain):
    shipped, oracle = FifoQueue(), pop_front_fifo.FifoQueue()
    for uid, op in enumerate(ops):
        if op == "push":
            pkt = mkpkt(uid % 7, uid=uid)
            shipped.push(pkt)
            oracle.push(pkt)
        else:
            assert outcome(shipped.pop) == outcome(oracle.pop)
        assert_same_state(shipped, oracle)
    while drain and len(oracle):
        assert shipped.pop() is oracle.pop()
        assert_same_state(shipped, oracle)


class MoveCountingList(list):
    """A list that tallies the pointers its front removals shift down."""

    moved = 0

    def pop(self, index=-1):
        if self:
            self.moved += len(self) - 1 - index % len(self)
        return super().pop(index)

    def __delitem__(self, key):
        if not isinstance(key, slice):
            key = slice(key, key + 1 or None)
        _, stop, _ = key.indices(len(self))
        self.moved += len(self) - stop
        super().__delitem__(key)

def test_draining_a_deep_queue_moves_each_packet_at_most_once():
    """A FIFO host's injection queue has no credit bound (16 896 packets
    after 20 ms at load 1.0 on ``small``).  Draining 50 000 packets one
    ``pop`` at a time must shift no more pointers than it pops; removing
    the first item each time would shift 1.25 * 10**9."""
    depth = 50_000
    queue = FifoQueue()
    queue._items = MoveCountingList()
    packets = [mkpkt(0, uid=uid) for uid in range(depth)]
    for pkt in packets:
        queue.push(pkt)
    drained = [queue.pop() for _ in range(depth)]
    assert drained == packets
    assert len(queue) == 0 and queue.front is None
    assert queue._items.moved <= depth
