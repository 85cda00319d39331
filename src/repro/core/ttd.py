"""Time-to-destination deadline encoding (Section 3.3).

Deadlines are absolute times, which would seem to require synchronized
clocks across every host and switch.  The paper avoids that: when a packet
leaves a node, the header carries ``TTD = deadline - local_clock``; the
next hop reconstructs a *local* deadline by adding its own clock.  All
packets at one node are shifted by the same amount, so the relative order
EDF cares about is untouched -- scheduling decisions are identical to the
synchronized-clock system, which is why the fast simulation path can use
absolute deadlines directly.  ``tests/core/test_ttd.py`` proves the
equivalence over arbitrary clock-offset assignments.

:class:`ClockDomain` models a fleet of free-running clocks (per-node
offsets from simulated "true" time), and the module functions implement
the two header operations.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["ClockDomain", "deadline_from_ttd", "ttd_from_deadline"]


def ttd_from_deadline(deadline_local: int, local_clock: int) -> int:
    """Header value written when a packet departs a node.

    May be negative: a packet already past its deadline still carries a
    meaningful (if tardy) TTD.
    """
    return deadline_local - local_clock


def deadline_from_ttd(ttd: int, local_clock: int) -> int:
    """Local deadline reconstructed when a packet arrives at a node."""
    return ttd + local_clock


class ClockDomain:
    """Unsynchronized per-node clocks: ``local = true_time + offset(node)``.

    Offsets are fixed for a run (clock *drift* over the microsecond
    flight times involved is orders of magnitude below nanosecond
    resolution, so modeling skew as constant offset is faithful).
    """

    def __init__(self, offsets: Dict[Hashable, int] | None = None):
        self._offsets: Dict[Hashable, int] = dict(offsets or {})

    def offset(self, node: Hashable) -> int:
        return self._offsets.get(node, 0)

    def local_time(self, node: Hashable, true_time: int) -> int:
        """What ``node``'s free-running clock reads at ``true_time``."""
        return true_time + self.offset(node)

    def rebase(self, deadline_local: int, src: Hashable, dst: Hashable, true_time: int) -> int:
        """Carry a deadline from ``src``'s clock to ``dst``'s clock.

        This composes :func:`ttd_from_deadline` at the sender with
        :func:`deadline_from_ttd` at the receiver.  ``true_time`` is when
        the handoff happens; because both clocks tick at the same rate the
        result does not actually depend on it, a fact the property tests
        exercise.
        """
        ttd = ttd_from_deadline(deadline_local, self.local_time(src, true_time))
        return deadline_from_ttd(ttd, self.local_time(dst, true_time))
