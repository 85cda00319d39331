"""Differential oracle: the per-class recording that took one frame per
step.

:meth:`repro.stats.collectors.MetricsCollector.on_delivery` now records a
delivered packet in one frame, with ``RunningStats.add`` and the fill
phase of ``Reservoir.add`` written out.  The recording it replaced --
``ClassStats.record_throughput`` / ``record`` / ``_complete_message``,
each accumulator updated through its own ``add`` -- is kept here
verbatim, on a subclass of the production ``ClassStats`` so both fill
the same fields.  ``tests/stats/test_collector_differential.py`` feeds
random delivery streams to both and requires bit-identical state.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.network.packet import Packet
from repro.stats.collectors import ClassStats


class OracleClassStats(ClassStats):
    """:class:`ClassStats` with its former recording methods."""

    __slots__ = ()

    def record_throughput(self, pkt: Packet) -> None:
        self.packets += 1
        self.bytes += pkt.size

    def record(self, pkt: Packet, now: int) -> None:
        latency = now - pkt.birth
        self.packet_latency.add(latency)
        self.packet_reservoir.add(latency)

        key = (pkt.flow_id, pkt.msg_id)
        entry = self._open_messages.get(key)
        if entry is None:
            if pkt.msg_parts == 1:
                self._complete_message(pkt.flow_id, pkt.birth, now)
                return
            entry = [pkt.birth, pkt.msg_parts]
            self._open_messages[key] = entry
        entry[1] -= 1
        if entry[1] == 0:
            del self._open_messages[key]
            self._complete_message(pkt.flow_id, entry[0], now)

    def _complete_message(self, flow_id: int, birth: int, now: int) -> None:
        latency = now - birth
        self.messages += 1
        self.message_latency.add(latency)
        self.message_reservoir.add(latency)
        previous = self._last_message_latency.get(flow_id)
        if previous is not None:
            self.jitter.add(abs(latency - previous))
        self._last_message_latency[flow_id] = latency


class OracleCollector:
    """The former ``MetricsCollector.on_delivery``."""

    def __init__(self, warmup_ns: int = 0, reservoir_capacity: int = 50_000):
        self.warmup_ns = warmup_ns
        self.reservoir_capacity = reservoir_capacity
        self.classes: Dict[str, OracleClassStats] = {}
        self.end_ns: Optional[int] = None
        self.dropped_warmup = 0

    def on_delivery(self, pkt: Packet, now: int) -> None:
        stats = self.classes.get(pkt.tclass)
        if stats is None:
            stats = self.classes[pkt.tclass] = OracleClassStats(
                pkt.tclass, self.reservoir_capacity
            )
        if now >= self.warmup_ns:
            stats.record_throughput(pkt)
        if pkt.birth < self.warmup_ns:
            self.dropped_warmup += 1
            return
        stats.record(pkt, now)
