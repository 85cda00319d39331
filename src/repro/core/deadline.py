"""Deadline stampers (Section 3.1).

The sender host keeps, per flow, the deadline of the previously stamped
packet and derives the next packet's deadline from it.  Three variants
appear in the paper:

**Rate-based (Virtual Clock)** -- for bandwidth-reserved and aggregated
best-effort flows::

    D(P_i) = max(D(P_{i-1}), T_now) + L(P_i) / BW_avg

**Control** -- latency-critical, nearly zero bandwidth: the same formula
with ``BW_avg`` set to the *link* bandwidth, which makes the increment the
bare serialization time and gives control packets the earliest deadlines
(maximum priority) without any reservation.

**Frame-based** -- for multimedia: the user picks a target latency per
application frame (10 ms in the paper) and every packet of a frame that
splits into ``parts`` MTU-sized pieces advances the virtual clock by
``target / parts``::

    D(P_i) = max(D(P_{i-1}), T_now) + target / Parts(F_i)

so each frame completes about ``target`` after it was handed to the NIC,
independent of frame size, with its packets evenly paced.

All stampers guarantee strictly increasing deadlines within a flow (the
appendix's hypothesis Eq. 1); when a computed increment rounds to zero
nanoseconds it is bumped to one.  The host NIC stamps a whole message
with one :meth:`DeadlineStamper.stamp_message` call: a frame-based
stamper treats the message as one frame, the others stamp its packets
one after another.
"""

from __future__ import annotations

import math

__all__ = [
    "DeadlineStamper",
    "FrameBasedStamper",
    "RateBasedStamper",
]


class DeadlineStamper:
    """Base class: keeps the per-flow virtual clock (last deadline).

    The clock starts at -infinity (a large negative sentinel), so the
    first packet always anchors at ``T_now`` -- important because hosts
    may stamp on *local* clocks (Section 3.3) whose epoch is not zero.
    """

    __slots__ = ("last_deadline",)

    #: "No packet stamped yet": below any representable local clock.
    UNSET = -(1 << 62)

    def __init__(self) -> None:
        self.last_deadline: int = self.UNSET

    def stamp_message(self, now: int, sizes: list[int]) -> list[int]:
        """The deadlines of one message's packets (``sizes`` in bytes), in
        order, stamped at ``now``; advances the virtual clock."""
        raise NotImplementedError


class RateBasedStamper(DeadlineStamper):
    """Virtual-Clock stamper for a flow with reserved average bandwidth.

    ``bw_bytes_per_ns`` is the reserved average rate.  The increment for a
    packet of ``size`` bytes is ``ceil(size / bw)`` nanoseconds.
    """

    __slots__ = ("bw_bytes_per_ns",)

    def __init__(self, bw_bytes_per_ns: float):
        super().__init__()
        if not bw_bytes_per_ns > 0:
            raise ValueError(f"reserved bandwidth must be positive, got {bw_bytes_per_ns}")
        self.bw_bytes_per_ns = bw_bytes_per_ns

    def stamp_message(self, now: int, sizes: list[int]) -> list[int]:
        # D = max(D_prev, now) + ceil(L / BW) per packet (at least 1 ns):
        # after the first packet the virtual clock is already past
        # ``now``, so each later deadline chains on the previous one.
        bw = self.bw_bytes_per_ns
        deadline = self.last_deadline if self.last_deadline > now else now
        deadlines = []
        for size in sizes:
            if size <= 0:
                raise ValueError(f"packet size must be positive, got {size}")
            increment = math.ceil(size / bw)
            deadline += increment if increment > 0 else 1
            deadlines.append(deadline)
        if deadlines:
            self.last_deadline = deadline
        return deadlines


class FrameBasedStamper(DeadlineStamper):
    """Frame-latency stamper for multimedia (Section 3.1's MPEG example).

    A message is one application frame: :meth:`stamp_message` returns the
    deadlines for all its ``parts`` packets.  The per-packet increment
    ``target/parts`` spreads the frame smoothly over the target window, so
    frame latency is ~``target_latency_ns`` regardless of size.
    """

    __slots__ = ("target_latency_ns",)

    def __init__(self, target_latency_ns: int):
        super().__init__()
        # Whole nanoseconds, by identity: a float target would reach the
        # integer deadline arithmetic, and True would be a 1 ns target.
        if target_latency_ns.__class__ is not int or target_latency_ns <= 0:
            raise ValueError(
                f"target latency must be a positive int (nanoseconds), got {target_latency_ns!r}"
            )
        self.target_latency_ns = target_latency_ns

    def stamp_message(self, now: int, sizes: list[int]) -> list[int]:
        parts = len(sizes)
        if parts <= 0:
            raise ValueError(f"frame must split into >= 1 packets, got {parts}")
        # D = max(D_prev, now) + target // parts per packet (at least 1 ns).
        increment = self.target_latency_ns // parts
        step = increment if increment > 0 else 1
        base = self.last_deadline if self.last_deadline > now else now
        self.last_deadline = base + step * parts
        return list(range(base + step, self.last_deadline + 1, step))
