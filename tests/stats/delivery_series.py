"""Per-class bucketed delivery curves (a test helper: no run path reads them).

The aggregate collectors answer "what was the QoS over the window"; the
time series answers *when* -- ramp-up, convergence to steady state, and
transient congestion all show up as bucketed throughput/latency curves.

Buckets are fixed-width in time; each records delivered bytes/packets
and a latency accumulator.  Memory is O(horizon / bucket).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.packet import Packet
from repro.stats.running import RunningStats

__all__ = ["DeliveryTimeSeries"]


class _Bucket:
    __slots__ = ("bytes", "packets", "latency")

    def __init__(self) -> None:
        self.bytes = 0
        self.packets = 0
        self.latency = RunningStats()


class DeliveryTimeSeries:
    """Per-class bucketed delivery curves.  Subscribe like a collector::

        series = DeliveryTimeSeries(bucket_ns=100_000)
        fabric.subscribe_delivery(series.on_delivery)
    """

    def __init__(self, bucket_ns: int, *, classes: Optional[Tuple[str, ...]] = None):
        if bucket_ns <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket_ns}")
        self.bucket_ns = bucket_ns
        self._filter = set(classes) if classes is not None else None
        self._buckets: Dict[str, Dict[int, _Bucket]] = {}

    def on_delivery(self, pkt: Packet, now: int) -> None:
        if self._filter is not None and pkt.tclass not in self._filter:
            return
        per_class = self._buckets.setdefault(pkt.tclass, {})
        index = now // self.bucket_ns
        bucket = per_class.get(index)
        if bucket is None:
            bucket = per_class[index] = _Bucket()
        bucket.bytes += pkt.size
        bucket.packets += 1
        bucket.latency.add(now - pkt.birth)

    # ------------------------------------------------------------------
    def classes(self) -> List[str]:
        return sorted(self._buckets)

    def throughput_curve(self, tclass: str) -> List[Tuple[int, float]]:
        """(bucket start ns, delivered bytes/ns) pairs, gaps filled with 0."""
        per_class = self._buckets.get(tclass, {})
        if not per_class:
            return []
        lo, hi = min(per_class), max(per_class)
        return [
            (
                index * self.bucket_ns,
                per_class[index].bytes / self.bucket_ns if index in per_class else 0.0,
            )
            for index in range(lo, hi + 1)
        ]

    def latency_curve(self, tclass: str) -> List[Tuple[int, float]]:
        """(bucket start ns, mean latency ns) for buckets with deliveries."""
        per_class = self._buckets.get(tclass, {})
        return [
            (index * self.bucket_ns, bucket.latency.mean)
            for index, bucket in sorted(per_class.items())
        ]

    def steady_state_start(self, tclass: str, *, tolerance: float = 0.25) -> Optional[int]:
        """First bucket from which throughput stays within ``tolerance`` of
        the remaining buckets' mean -- a simple convergence detector used
        to sanity-check warm-up lengths."""
        curve = self.throughput_curve(tclass)
        if len(curve) < 3:
            return None
        values = [v for _, v in curve]
        for start in range(len(values) - 2):
            tail = values[start:]
            mean = sum(tail) / len(tail)
            if mean == 0:
                continue
            if all(abs(v - mean) <= tolerance * mean for v in tail):
                return curve[start][0]
        return None
