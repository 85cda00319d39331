"""Common interface for switch buffer structures.

A queue stores packets (anything with ``deadline``, ``uid`` and ``size``
attributes) and exposes exactly one *head* -- the packet its dequeuing
discipline would hand to the arbiter next.  Switch arbiters only ever
look at heads; that restriction is the point of the paper (full buffer
scans are not implementable at link rate).

Queues track their occupancy in bytes because the credit-based flow
control of :mod:`repro.network.link` accounts buffer space in bytes
(8 KB per VC in the paper's configuration).  Capacity enforcement is a
*backstop*: with correct credit flow control upstream, a queue can never
be offered more bytes than it advertised, and :class:`QueueFullError`
firing in a simulation indicates a flow-control bug, not a packet drop --
these networks are lossless.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, runtime_checkable

from repro.core.invariants import invariant

__all__ = ["PacketQueue", "QueueFullError", "DeadlineTagged"]


@runtime_checkable
class DeadlineTagged(Protocol):
    """What a queue needs from its items (satisfied by
    :class:`repro.network.packet.Packet`)."""

    deadline: int
    uid: int
    size: int


class QueueFullError(RuntimeError):
    """Offered a packet that does not fit; indicates broken flow control."""


class PacketQueue:
    """Abstract buffer with a single dequeue head.

    Subclasses implement ``push``/``pop``/``head``/``__iter__``.
    """

    __slots__ = ("capacity_bytes", "used_bytes")

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0

    # -- subclass interface -------------------------------------------------
    def push(self, pkt: DeadlineTagged) -> None:
        """Accept a packet (raises :class:`QueueFullError` if it cannot fit)."""
        raise NotImplementedError

    def pop(self) -> DeadlineTagged:
        """Remove and return the head packet (raises IndexError when empty)."""
        raise NotImplementedError

    def head(self) -> Optional[DeadlineTagged]:
        """The packet the dequeue discipline offers next, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterable[DeadlineTagged]:
        """All stored packets, in no particular order (for tests/metrics)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------
    # The FIFO, heap and take-over queues add and subtract ``used_bytes``
    # inline (they are on every packet hop) and call ``_charge`` only when
    # bounded; a queue with no such reason uses both helpers.
    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def free_bytes(self) -> int:
        """Remaining capacity; unbounded queues report a large sentinel."""
        if self.capacity_bytes is None:
            return 1 << 62
        return self.capacity_bytes - self.used_bytes

    def _charge(self, pkt: DeadlineTagged) -> None:
        if self.capacity_bytes is not None and pkt.size > self.free_bytes:
            raise QueueFullError(
                f"packet of {pkt.size} B offered to queue with "
                f"{self.free_bytes} B free (flow-control violation)"
            )
        self.used_bytes += pkt.size

    def _discharge(self, pkt: DeadlineTagged) -> None:
        self.used_bytes -= pkt.size
        invariant(self.used_bytes >= 0, "queue byte accounting went negative")
