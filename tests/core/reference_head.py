"""Test oracle: each queue's head, recomputed from its contents.

A queue's head has one definition in ``src/``: its ``front``, a slot the
FIFO, heap and take-over queues keep current in ``push``/``pop``, or a
property where the head depends on the clock or on an inner queue.
:func:`reference_head` is the ``head()`` every queue class used to
define beside that field, kept here so ``tests/core/test_queue_fronts.py``
and the scanning pickers (``tests/core/scanning_pickers.py``) check
``front`` against a second, independent definition.  It reads the
queue's storage and changes nothing (the pipelined heap's ``front``
absorbs settled inserts; this computes the same head without doing so).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.cost import _CountingQueue
from repro.core.invariants import InvariantViolation
from repro.core.queues import EDFHeapQueue, FifoQueue, TakeOverQueue
from repro.core.queues.base import DeadlineTagged, PacketQueue
from repro.network.switch import _UnusedVOQ
from tests.core.pipelined_heap import PipelinedHeapQueue

__all__ = ["reference_head"]


def reference_head(queue: PacketQueue) -> Optional[DeadlineTagged]:
    """The packet ``queue``'s dequeue discipline offers next, or None."""
    if isinstance(queue, _CountingQueue):
        return reference_head(queue.inner)
    if isinstance(queue, TakeOverQueue):
        lower, upper = queue._lower, queue._upper
        if not lower:
            if upper:
                raise InvariantViolation("Lemma 1 violated: packets only in take-over queue")
            return None
        if not upper:
            return lower[0]
        l_head, u_head = lower[0], upper[0]
        if (u_head.deadline, u_head.uid) < (l_head.deadline, l_head.uid):
            return u_head
        return l_head
    if isinstance(queue, FifoQueue):
        items, head = queue._items, queue._head
        return items[head] if head < len(items) else None
    if isinstance(queue, EDFHeapQueue):
        return queue._heap[0][2] if queue._heap else None
    if isinstance(queue, PipelinedHeapQueue):
        # The inserts that have settled by now join the heap's minimum;
        # with none settled, the oldest in-flight insert bypasses the
        # pipeline.
        now = queue.now_fn()
        candidates = [queue._heap[0][2]] if queue._heap else []
        for visible_at, pkt in queue._staging:
            if visible_at > now:
                break
            candidates.append(pkt)
        if candidates:
            return min(candidates, key=lambda pkt: (pkt.deadline, pkt.uid))
        return queue._staging[0][1] if queue._staging else None
    if isinstance(queue, _UnusedVOQ):
        return None
    raise TypeError(f"no reference head for {type(queue).__name__}")
