"""Common interface for switch buffer structures.

A queue stores packets (anything with ``deadline``, ``uid`` and ``size``
attributes) and exposes exactly one *head* -- the packet its dequeuing
discipline would hand to the arbiter next.  Switch arbiters only ever
look at heads; that restriction is the point of the paper (full buffer
scans are not implementable at link rate).

In hardware a head is a register, so everyone reads it as a field:
``front``.  The FIFO, heap and take-over queues keep that slot current
in their own ``push``/``pop``; a queue whose head depends on the clock
or on an inner queue defines ``front`` as a property instead.

A queue holds packets, not bytes.  Buffer space lives in one ledger, the
credits of the link that feeds the buffer (:mod:`repro.network.link`,
8 KB per VC in the paper's configuration): ``Link.transmit`` refuses a
send the downstream VC buffer cannot take, and ``Link._credit_arrived``
refuses a credit returned twice.  These networks are lossless, so a
queue is never offered a packet it has no room for.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, runtime_checkable

__all__ = ["PacketQueue", "DeadlineTagged"]


@runtime_checkable
class DeadlineTagged(Protocol):
    """What a queue needs from its items (satisfied by
    :class:`repro.network.packet.Packet`)."""

    deadline: int
    uid: int
    size: int


class PacketQueue:
    """Abstract buffer with a single dequeue head.

    Subclasses implement ``push``/``pop``/``__len__``/``__iter__`` and
    provide ``front``.
    """

    __slots__ = ()

    #: The packet the dequeue discipline offers next, or None when empty:
    #: a slot the subclass keeps current, or a property.
    front: Optional[DeadlineTagged]

    def push(self, pkt: DeadlineTagged) -> None:
        """Accept a packet."""
        raise NotImplementedError

    def pop(self) -> DeadlineTagged:
        """Remove and return the head packet (raises IndexError when empty)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterable[DeadlineTagged]:
        """All stored packets, in no particular order (for tests/metrics)."""
        raise NotImplementedError
