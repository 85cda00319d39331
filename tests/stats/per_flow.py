"""Per-flow statistics (a test helper: no run path reads them).

The paper's per-flow QoS claim ("we can guarantee minimum bandwidth if
we are careful assigning weights") is about *individual* flows, not class
aggregates, so the harness needs a per-flow view: latency and delivered
throughput per flow id, plus "worst flows" queries -- the per-flow
fairness tests check that no admitted flow is starved while the class
aggregate looks healthy.

Memory note: per-flow state is a small fixed record per flow (tens of
thousands of flows at paper scale is fine); latency keeps streaming
moments only, no reservoirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.packet import Packet
from repro.stats.running import RunningStats

__all__ = ["FlowStats", "PerFlowCollector"]


@dataclass
class FlowStats:
    """Delivered traffic of one flow."""

    flow_id: int
    tclass: str
    src: int
    dst: int
    packets: int = 0
    bytes: int = 0
    latency: RunningStats = field(default_factory=RunningStats)
    first_delivery_ns: Optional[int] = None
    last_delivery_ns: Optional[int] = None

    def observe(self, pkt: Packet, now: int) -> None:
        self.packets += 1
        self.bytes += pkt.size
        self.latency.add(now - pkt.birth)
        if self.first_delivery_ns is None:
            self.first_delivery_ns = now
        self.last_delivery_ns = now

    def throughput_bytes_per_ns(self, window_ns: int) -> float:
        return self.bytes / window_ns if window_ns > 0 else 0.0


class PerFlowCollector:
    """Tracks every flow's delivered latency/throughput.

    Subscribe to a fabric like the class-level collector::

        flows = PerFlowCollector(warmup_ns=...)
        fabric.subscribe_delivery(flows.on_delivery)
    """

    def __init__(self, warmup_ns: int = 0):
        if warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup_ns}")
        self.warmup_ns = warmup_ns
        self.flows: Dict[int, FlowStats] = {}

    def on_delivery(self, pkt: Packet, now: int) -> None:
        if pkt.birth < self.warmup_ns:
            return
        stats = self.flows.get(pkt.flow_id)
        if stats is None:
            # Per-flow stats ARE the report: every flow's row must
            # survive to the end of the run, so retention is the point.
            stats = self.flows[pkt.flow_id] = FlowStats(
                pkt.flow_id, pkt.tclass, pkt.src, pkt.dst
            )
        stats.observe(pkt, now)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flows)

    def get(self, flow_id: int) -> FlowStats:
        return self.flows[flow_id]

    def by_class(self, tclass: str) -> List[FlowStats]:
        return [f for f in self.flows.values() if f.tclass == tclass]

    def worst_by_latency(self, n: int = 10, tclass: Optional[str] = None) -> List[FlowStats]:
        """The n flows with the highest mean latency."""
        pool = self.by_class(tclass) if tclass else list(self.flows.values())
        return sorted(pool, key=lambda f: f.latency.mean, reverse=True)[:n]

    def throughput_spread(self, tclass: str, window_ns: int) -> Tuple[float, float, float]:
        """(min, mean, max) per-flow throughput of a class -- the fairness
        view: a healthy class aggregate with min ~ 0 means starvation."""
        flows = self.by_class(tclass)
        if not flows:
            return (0.0, 0.0, 0.0)
        rates = [f.throughput_bytes_per_ns(window_ns) for f in flows]
        return (min(rates), sum(rates) / len(rates), max(rates))
