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
    """The eligible-time offset; ``offset_ns=None`` disables smoothing.

    A packet stamped with ``deadline`` at ``now`` becomes eligible at
    ``max(deadline - offset_ns, now)``; ``Host.submit_message`` applies
    that rule, reading ``offset_ns`` once per message.

    >>> EligiblePolicy(20_000).offset_ns
    20000
    >>> EligiblePolicy(20_000.5)
    Traceback (most recent call last):
    ...
    ValueError: eligible-time offset must be an int >= 0 (nanoseconds), got 20000.5
    """

    __slots__ = ("offset_ns",)

    def __init__(self, offset_ns: int | None = DEFAULT_OFFSET_NS):
        # Whole nanoseconds, by identity: the offset becomes an engine time.
        if offset_ns is not None and (offset_ns.__class__ is not int or offset_ns < 0):
            raise ValueError(
                f"eligible-time offset must be an int >= 0 (nanoseconds), got {offset_ns!r}"
            )
        self.offset_ns = offset_ns
