"""The buffer structures evaluated by the paper.

All three expose the same interface (:class:`~repro.core.queues.base.PacketQueue`):

- :class:`~repro.core.queues.fifo.FifoQueue` -- a plain FIFO; with an EDF
  arbiter over queue *heads* this is the paper's **Simple 2 VCs**
  architecture, and with a round-robin arbiter it is **Traditional 2 VCs**.
- :class:`~repro.core.queues.heap.EDFHeapQueue` -- a heap that always
  exposes the minimum-deadline packet; the paper's unimplementable
  **Ideal** reference (pipelined-heap hardware, Ioannou & Katevenis).
- :class:`~repro.core.queues.takeover.TakeOverQueue` -- the ordered +
  take-over FIFO pair of Section 3.4 (**Advanced 2 VCs**), which the
  appendix proves never reorders packets of the same flow.
"""

from repro.core.queues.base import PacketQueue
from repro.core.queues.fifo import FifoQueue
from repro.core.queues.heap import EDFHeapQueue
from repro.core.queues.takeover import TakeOverQueue

__all__ = [
    "EDFHeapQueue",
    "FifoQueue",
    "PacketQueue",
    "TakeOverQueue",
]
