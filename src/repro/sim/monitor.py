"""Structured event tracing.

A :class:`Trace` collects ``(time, topic, payload)`` records.  Traces are
for debugging and for the fine-grained assertions in the integration
tests (e.g. "packet X left switch S before packet Y"); the statistics
used by the benchmark harness are collected by the cheaper accumulators
in :mod:`repro.stats`.  A fabric built with ``trace=`` records four
topics through :class:`repro.obs.observer.FabricObserver`:
``host.inject``, ``switch.enqueue``, ``switch.forward``, ``host.deliver``.

There is no no-op sink: a run that records nothing passes ``trace=None``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Set, Union

__all__ = ["Trace", "TraceRecord"]


class TraceRecord(NamedTuple):
    time: int
    topic: str
    payload: tuple


class Trace:
    """Records events, optionally filtered to a set of topics.

    >>> t = Trace(topics={"switch.forward"})
    >>> t.record(10, "switch.forward", "pkt1")
    >>> t.record(11, "link.busy", "ignored")
    >>> [r.topic for r in t.records]
    ['switch.forward']

    **Drop policy at capacity.**  With ``ring=False`` (the default,
    matching historical behaviour) a full trace keeps the *oldest*
    records and drops new arrivals -- right for "how did the run start"
    forensics.  With ``ring=True`` the buffer keeps the *newest*
    ``capacity`` records, evicting the oldest -- right for "what
    happened just before it went wrong".  Either way ``dropped`` counts
    every record not retained, and subscribers always see **all**
    matching records regardless of buffer state: capacity bounds
    memory, not the callback stream.

    **Storage.**  A retained record is one flat tuple ``(time, topic,
    *payload)``; :attr:`records` builds a :class:`TraceRecord` from
    each on read.  A fabric's ring takes a record per lifecycle point and evicts
    most of them unread, and a flat tuple of integers and strings is one
    object the garbage collector stops tracking after its first pass,
    where a ``TraceRecord`` (a tuple subclass) and its payload tuple stay
    tracked for as long as the ring holds them.
    """

    def __init__(
        self,
        topics: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
        *,
        ring: bool = False,
    ):
        if ring and capacity is None:
            raise ValueError("ring=True requires a capacity")
        if capacity is not None and capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.topics: Optional[Set[str]] = set(topics) if topics is not None else None
        self.capacity = capacity
        self.ring = ring
        self._kept: Union[List[tuple], "deque[tuple]"] = deque(maxlen=capacity) if ring else []
        self.dropped = 0
        self._subscribers: dict[str, list[Callable[[TraceRecord], None]]] = {}

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a new list on every read)."""
        return [TraceRecord(kept[0], kept[1], kept[2:]) for kept in self._kept]

    def record(self, time: int, topic: str, *payload: Any) -> None:
        if self.topics is not None and topic not in self.topics:
            return
        kept = self._kept
        if self.ring:
            if len(kept) == self.capacity:
                self.dropped += 1  # deque(maxlen=...) evicts the oldest
            kept.append((time, topic) + payload)
        elif self.capacity is None or len(kept) < self.capacity:
            kept.append((time, topic) + payload)
        else:
            self.dropped += 1
        if self._subscribers:
            subscribers = self._subscribers.get(topic)
            if subscribers:
                rec = TraceRecord(time, topic, payload)
                for fn in subscribers:
                    fn(rec)

    def subscribe(self, topic: str, fn: Callable[[TraceRecord], None]) -> None:
        """Call ``fn`` synchronously for every record on ``topic``."""
        if self.topics is not None:
            self.topics.add(topic)
        self._subscribers.setdefault(topic, []).append(fn)

    def by_topic(self, topic: str) -> List[TraceRecord]:
        return [r for r in self.records if r.topic == topic]

    def clear(self) -> None:
        self._kept.clear()
        self.dropped = 0

    def snapshot(self) -> dict:
        """Buffer state as a JSON-ready summary (policy, retention, drops)."""
        return {
            "retained": len(self._kept),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "policy": "ring-keep-newest" if self.ring else "keep-oldest",
            "topics": sorted(self.topics) if self.topics is not None else None,
        }
