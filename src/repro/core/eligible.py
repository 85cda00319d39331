"""Eligible-time smoothing (Sections 3.1-3.2).

A packet's *eligible time* is the earliest cycle at which the source
interface may inject it.  The paper computes it as ``deadline`` minus a
fixed offset (20 microseconds worked well in their tests) and applies it
only to traffic classes that tolerate smoothing (multimedia); control
traffic must not be held back.

The tag lives only in the source interface -- it is never transmitted, and
switches never see it.  The offset is one number,
``FabricParams.eligible_offset_ns`` (checked there; ``None`` disables
smoothing), and ``Host.submit_message`` applies the rule once per
message: a packet stamped with ``deadline`` at ``now`` becomes eligible
at ``max(deadline - offset, now)``.  A packet due at 150 us, stamped at
100 us, waits until 130 us:

>>> max(150_000 - DEFAULT_OFFSET_NS, 100_000)
130000
"""

from __future__ import annotations

from repro.sim import units

__all__ = ["DEFAULT_OFFSET_NS"]

#: The offset the paper reports to work well (Section 3.1).
DEFAULT_OFFSET_NS = units.us(20)
