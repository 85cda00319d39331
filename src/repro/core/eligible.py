"""Eligible-time smoothing (Sections 3.1-3.2).

A packet's *eligible time* is the earliest cycle at which the source
interface may inject it.  The paper computes it as ``deadline`` minus a
fixed offset (20 microseconds worked well in their tests) and applies it
only to traffic classes that tolerate smoothing (multimedia); control
traffic must not be held back.

The tag lives only in the source interface -- it is never transmitted, and
switches never see it.
"""

from __future__ import annotations

from repro.sim import units

__all__ = ["EligiblePolicy"]

#: The offset the paper reports to work well (Section 3.1).
DEFAULT_OFFSET_NS = units.us(20)


class EligiblePolicy:
    """Computes eligible times; ``offset_ns=None`` disables smoothing.

    >>> pol = EligiblePolicy(20_000)
    >>> pol.eligible_time(deadline=100_000, now=50_000)
    80000
    >>> pol.eligible_time(deadline=60_000, now=50_000)  # never in the past
    50000
    >>> EligiblePolicy(None).eligible_time(deadline=100_000, now=50_000)
    50000
    """

    __slots__ = ("offset_ns",)

    def __init__(self, offset_ns: int | None = DEFAULT_OFFSET_NS):
        if offset_ns is not None and offset_ns < 0:
            raise ValueError(f"eligible-time offset must be >= 0, got {offset_ns}")
        self.offset_ns = offset_ns

    @property
    def enabled(self) -> bool:
        return self.offset_ns is not None

    def eligible_time(self, *, deadline: int, now: int) -> int:
        """Earliest injection time for a packet stamped with ``deadline``.

        ``Host.submit_message`` applies this rule inline, reading
        ``offset_ns`` once per message."""
        if self.offset_ns is None:
            return now
        eligible = deadline - self.offset_ns
        return eligible if eligible > now else now
