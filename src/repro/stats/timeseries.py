"""Heartbeat samples of named gauges over simulated time.

:class:`GaugeTimeSeries` is the row log :mod:`repro.obs.telemetry` fills,
one row per heartbeat; it answers *when* a gauge moved, which the
end-of-run aggregates cannot.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["GaugeTimeSeries"]


class GaugeTimeSeries:
    """Heartbeat samples of named gauges over simulated time.

    :class:`repro.obs.telemetry.RunTelemetry` appends one row per
    heartbeat: ``(sim time ns, {gauge name: value})``.  The sampling
    grid is driven by the telemetry timer, not by deliveries, so rows
    are evenly spaced even through dead air (which is exactly when a
    stalled fabric is most interesting to look at).

    ``capacity`` bounds the row count: once full, each new row evicts
    the oldest (keep-newest, matching the trace ring's semantics) and
    increments :attr:`dropped`.  The default is unbounded for
    short-horizon runs; long-horizon/scale runs should set it so the
    heartbeat log stays O(capacity) instead of O(run length).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self.samples: Deque[Tuple[int, Dict[str, float]]] = deque(
            maxlen=capacity
        )

    def append(self, t_ns: int, values: Dict[str, float]) -> None:
        if self.capacity is not None and len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append((t_ns, dict(values)))

    def __len__(self) -> int:
        return len(self.samples)

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for _, values in self.samples:
            for name in values:
                seen[name] = None
        return sorted(seen)

    def series(self, name: str) -> List[Tuple[int, float]]:
        """(sim time ns, value) pairs for one gauge, skipping absent rows."""
        return [(t, row[name]) for t, row in self.samples if name in row]

    def latest(self, name: str) -> Optional[float]:
        for t, row in reversed(self.samples):
            if name in row:
                return row[name]
        return None

    def to_dict(self) -> dict:
        return {
            "samples": [
                {"t_ns": t, "values": dict(sorted(row.items()))}
                for t, row in self.samples
            ],
            "capacity": self.capacity,
            "dropped": self.dropped,
        }
