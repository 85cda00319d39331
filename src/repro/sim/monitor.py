"""Structured event tracing.

A :class:`Trace` keeps the newest ``(time, topic, payload)`` records, for
debugging and for the integration tests' ordering assertions (e.g. "packet
X left switch S before packet Y"); the benchmark's statistics come from the
cheaper accumulators in :mod:`repro.stats`.  A fabric built with ``trace=``
records four topics through :class:`repro.obs.observer.FabricObserver`:
``host.inject``, ``switch.enqueue``, ``switch.forward``, ``host.deliver``.

There is no no-op sink: a run that records nothing passes ``trace=None``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, NamedTuple, Optional

__all__ = ["Trace", "TraceRecord"]


class TraceRecord(NamedTuple):
    time: int
    topic: str
    payload: tuple


class Trace:
    """The newest ``capacity`` records (every record when ``capacity`` is
    ``None``); ``dropped`` counts the evicted ones.

    >>> t = Trace(capacity=2)
    >>> for time in (10, 11, 12):
    ...     t.record(time, "switch.forward", "pkt")
    >>> [r.time for r in t.records], t.dropped
    ([11, 12], 1)

    **Storage.**  A record is kept as one flat tuple ``(time, topic,
    *payload)`` and :attr:`records` builds each :class:`TraceRecord` on
    read: a fabric's ring evicts most records unread, and the collector
    stops tracking a flat tuple of integers and strings after its first
    pass, where a ``TraceRecord`` and its payload tuple stay tracked.
    """

    def __init__(self, capacity: Optional[int] = None, *, ring: bool = True):
        if not ring:
            raise ValueError("ring=False (keep the oldest) was removed: a Trace keeps the newest")
        if capacity is not None and capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._kept: "deque[tuple]" = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a new list on every read)."""
        return [TraceRecord(kept[0], kept[1], kept[2:]) for kept in self._kept]

    def record(self, time: int, topic: str, *payload: Any) -> None:
        kept = self._kept
        if len(kept) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest
        kept.append((time, topic) + payload)

    def snapshot(self) -> dict:
        """Buffer state as a JSON-ready summary (policy, retention, drops)."""
        # An unbounded buffer evicts nothing, so it keeps the label the ring
        # GOLDENs in tests/obs/test_observer_equivalence.py hash for Trace();
        # there is no topic filter, and docs/metrics_schema.json allows null.
        return {
            "retained": len(self._kept),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "policy": "keep-oldest" if self.capacity is None else "ring-keep-newest",
            "topics": None,
        }
