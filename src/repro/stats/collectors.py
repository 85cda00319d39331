"""Per-class QoS metrics collection.

A :class:`MetricsCollector` subscribes to a fabric's packet deliveries
and maintains, per traffic class:

- **packet latency** (birth at the source NIC -> full delivery), mean /
  extrema via :class:`RunningStats` and a reservoir for the CDF;
- **message ("frame") latency**: messages are reassembled by
  ``(flow_id, msg_id)``; latency is birth -> delivery of the *last*
  packet of the message.  For multimedia this is the video-frame latency
  Figure 3 reports;
- **inter-frame jitter**: mean absolute difference between consecutive
  frame latencies of the same flow (and the latency std as a second
  jitter view);
- **delivered throughput** within the measurement window.

Warm-up handling: packets *born* before ``warmup_ns`` are excluded from
latency and jitter statistics entirely (their queueing reflects the
cold-start transient), while throughput counts every byte *delivered*
inside the window ``[warmup_ns, finalize time]`` regardless of birth
time -- in steady state the packets delivered after the window closes
are balanced by old ones delivered just inside it, so this estimator is
unbiased even for classes with large intentional latency (video's 10 ms
target would otherwise clip ~target/window of the measured throughput).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.network.packet import Packet
from repro.stats.cdf import EmpiricalCDF
from repro.stats.reservoir import Reservoir
from repro.stats.running import RunningStats

__all__ = ["ClassStats", "MetricsCollector"]


class ClassStats:
    """Accumulated metrics for one traffic class (filled by
    :meth:`MetricsCollector.on_delivery`)."""

    __slots__ = (
        "tclass",
        "packet_latency",
        "packet_reservoir",
        "message_latency",
        "message_reservoir",
        "jitter",
        "packets",
        "bytes",
        "messages",
        "_open_messages",
        "_last_message_latency",
    )

    def __init__(self, tclass: str, reservoir_capacity: int = 50_000):
        self.tclass = tclass
        self.packet_latency = RunningStats()
        self.packet_reservoir = Reservoir(reservoir_capacity)
        self.message_latency = RunningStats()
        self.message_reservoir = Reservoir(reservoir_capacity)
        #: mean |latency_i - latency_{i-1}| over consecutive frames per flow
        self.jitter = RunningStats()
        self.packets = 0
        self.bytes = 0
        self.messages = 0
        #: (flow_id, msg_id) -> [birth, parts_remaining]
        self._open_messages: Dict[Tuple[int, int], list] = {}
        self._last_message_latency: Dict[int, float] = {}

    def forget_flow(self, flow_id: int) -> None:
        """Drop the per-flow jitter anchor for a closed flow.

        Pairs with :meth:`repro.core.flow.FlowRegistry.close`: churny
        scale runs retire flows as they finish, keeping this map
        O(live flows) instead of O(flows ever seen).
        """
        self._last_message_latency.pop(flow_id, None)

    # ------------------------------------------------------------------
    def packet_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF(self.packet_reservoir.items)

    def message_cdf(self) -> EmpiricalCDF:
        return EmpiricalCDF(self.message_reservoir.items)

    def throughput_bytes_per_ns(self, window_ns: int) -> float:
        if window_ns <= 0:
            return 0.0
        return self.bytes / window_ns


class MetricsCollector:
    """Fabric-wide per-class metrics with a warm-up cutoff.

    Use as::

        collector = MetricsCollector(warmup_ns=200_000)
        fabric.subscribe_delivery(collector.on_delivery)
        ... run ...
        collector.finalize(fabric.engine.now)
    """

    def __init__(self, warmup_ns: int = 0, reservoir_capacity: int = 50_000):
        if warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup_ns}")
        self.warmup_ns = warmup_ns
        self.reservoir_capacity = reservoir_capacity
        self.classes: Dict[str, ClassStats] = {}
        self.end_ns: Optional[int] = None
        self.dropped_warmup = 0

    def on_delivery(self, pkt: Packet, now: int) -> None:
        """Record one delivered packet, in one frame.

        This runs once per delivered packet, so the accumulator updates
        are written out here: :meth:`RunningStats.add` (Welford, the same
        operations in the same order) and the fill phase of
        :meth:`Reservoir.add`.  A full reservoir still goes through
        ``add``, whose sampling draw owns the reservoir's RNG.
        """
        stats = self.classes.get(pkt.tclass)
        if stats is None:
            stats = self.classes[pkt.tclass] = ClassStats(
                pkt.tclass, self.reservoir_capacity
            )
        warmup = self.warmup_ns
        if now >= warmup:
            stats.packets += 1
            stats.bytes += pkt.size
        birth = pkt.birth
        if birth < warmup:
            self.dropped_warmup += 1
            return

        latency = now - birth
        running = stats.packet_latency
        running.count += 1
        delta = latency - running.mean
        running.mean += delta / running.count
        running._m2 += delta * (latency - running.mean)
        if latency < running.min:
            running.min = latency
        if latency > running.max:
            running.max = latency
        reservoir = stats.packet_reservoir
        if len(reservoir.items) < reservoir.capacity:
            reservoir.seen += 1
            reservoir.items.append(latency)
        else:
            reservoir.add(latency)

        # Message reassembly: the last part to arrive completes it.
        if pkt.msg_parts != 1:
            key = (pkt.flow_id, pkt.msg_id)
            entry = stats._open_messages.get(key)
            if entry is None:
                entry = stats._open_messages[key] = [birth, pkt.msg_parts]
            entry[1] -= 1
            if entry[1]:
                return
            del stats._open_messages[key]
            latency = now - entry[0]
        stats.messages += 1
        running = stats.message_latency
        running.count += 1
        delta = latency - running.mean
        running.mean += delta / running.count
        running._m2 += delta * (latency - running.mean)
        if latency < running.min:
            running.min = latency
        if latency > running.max:
            running.max = latency
        reservoir = stats.message_reservoir
        if len(reservoir.items) < reservoir.capacity:
            reservoir.seen += 1
            reservoir.items.append(latency)
        else:
            reservoir.add(latency)
        last = stats._last_message_latency
        flow_id = pkt.flow_id
        previous = last.get(flow_id)
        last[flow_id] = latency
        if previous is not None:
            gap = abs(latency - previous)
            running = stats.jitter
            running.count += 1
            delta = gap - running.mean
            running.mean += delta / running.count
            running._m2 += delta * (gap - running.mean)
            if gap < running.min:
                running.min = gap
            if gap > running.max:
                running.max = gap

    def finalize(self, now: int) -> None:
        """Mark the end of the measurement window."""
        self.end_ns = now

    @property
    def window_ns(self) -> int:
        if self.end_ns is None:
            raise RuntimeError("call finalize(now) before reading throughput")
        return self.end_ns - self.warmup_ns

    def throughput(self, tclass: str) -> float:
        """Delivered bytes/ns of one class over the measurement window."""
        stats = self.classes.get(tclass)
        if stats is None:
            return 0.0
        return stats.throughput_bytes_per_ns(self.window_ns)

    def get(self, tclass: str) -> ClassStats:
        try:
            return self.classes[tclass]
        except KeyError:
            known = ", ".join(sorted(self.classes)) or "(none)"
            raise KeyError(
                f"no deliveries recorded for class {tclass!r}; classes seen: {known}"
            ) from None
