"""Differential oracle: the delivery-subscriber latency decomposition.

Where a class's latency goes -- held at the source NIC, or spent in the
network -- is answered by the span tracer (``run --trace-spans ...
--span-policy head --span-rate 1.0`` then ``trace blame --all``):
``host.eligible_wait + host.queue_wait`` is the source hold, the other
three stages are the network time, in exact integer ns.  The float
collector that answered it before is kept here verbatim:
``test_breakdown.py`` pins its semantics, and
``test_blame_vs_breakdown.py`` requires the blame report to agree with it
on every class of the figure configs.

End-to-end latency is the sum of three stages:

- **source holding** (birth -> injection): eligible-time smoothing *on
  purpose* parks multimedia here; for control it should be ~zero, and
  growth here means the host's injection queue or its credit loop is the
  bottleneck;
- **network** (injection -> delivery): switch queueing + serialization;
  order errors and arbitration quality live here;
- for messages, **reassembly spread** (first packet's delivery -> last
  packet's delivery): how much a frame is smeared across the wire.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.network.packet import Packet
from repro.stats.running import RunningStats


class ClassBreakdown:
    """Per-class stage accumulators."""

    __slots__ = ("tclass", "source_hold", "network", "message_spread", "_first_part")

    def __init__(self, tclass: str):
        self.tclass = tclass
        #: birth -> injection (NIC queueing + intentional smoothing)
        self.source_hold = RunningStats()
        #: injection -> delivery (switch queueing + wires)
        self.network = RunningStats()
        #: first-part delivery -> last-part delivery per message
        self.message_spread = RunningStats()
        self._first_part: Dict[Tuple[int, int], list] = {}

    def record(self, pkt: Packet, now: int) -> None:
        if pkt.inject is not None:
            self.source_hold.add(pkt.inject - pkt.birth)
            self.network.add(now - pkt.inject)
        if pkt.msg_parts > 1:
            key = (pkt.flow_id, pkt.msg_id)
            entry = self._first_part.get(key)
            if entry is None:
                self._first_part[key] = [now, pkt.msg_parts - 1]
            else:
                entry[1] -= 1
                if entry[1] == 0:
                    first_delivery, _ = self._first_part.pop(key)
                    self.message_spread.add(now - first_delivery)


class LatencyBreakdown:
    """Fabric-wide per-class latency decomposition.

    Subscribe like any collector::

        breakdown = LatencyBreakdown(warmup_ns=...)
        fabric.subscribe_delivery(breakdown.on_delivery)
        ... run ...
        print(breakdown.table())
    """

    def __init__(self, warmup_ns: int = 0):
        if warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup_ns}")
        self.warmup_ns = warmup_ns
        self.classes: Dict[str, ClassBreakdown] = {}

    def on_delivery(self, pkt: Packet, now: int) -> None:
        if pkt.birth < self.warmup_ns:
            return
        entry = self.classes.get(pkt.tclass)
        if entry is None:
            entry = self.classes[pkt.tclass] = ClassBreakdown(pkt.tclass)
        entry.record(pkt, now)

    def get(self, tclass: str) -> ClassBreakdown:
        try:
            return self.classes[tclass]
        except KeyError:
            known = ", ".join(sorted(self.classes)) or "(none)"
            raise KeyError(f"no class {tclass!r}; seen: {known}") from None

    def dominant_stage(self, tclass: str) -> str:
        """Which stage contributes most to this class's mean latency."""
        entry = self.get(tclass)
        stages = {
            "source-hold": entry.source_hold.mean if entry.source_hold.count else 0.0,
            "network": entry.network.mean if entry.network.count else 0.0,
        }
        return max(stages, key=stages.get)  # type: ignore[arg-type]

    def table(self) -> str:
        from repro.stats.report import format_table

        rows = []
        for tclass in sorted(self.classes):
            entry = self.classes[tclass]
            rows.append(
                [
                    tclass,
                    entry.source_hold.count,
                    entry.source_hold.mean / 1e3 if entry.source_hold.count else 0.0,
                    entry.network.mean / 1e3 if entry.network.count else 0.0,
                    (
                        entry.message_spread.mean / 1e3
                        if entry.message_spread.count
                        else 0.0
                    ),
                ]
            )
        return format_table(
            [
                "class",
                "packets",
                "source hold (us)",
                "network (us)",
                "msg spread (us)",
            ],
            rows,
            title="Latency breakdown",
        )
