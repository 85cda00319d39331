"""Self-similar best-effort traffic (Table 1, rows 3-4).

"Self-similar internet-like traffic ... composed of bursts of packets
heading to the same destination.  The packet size is governed by a
Pareto distribution" (Section 4.2, following Jain's methodology book).

A :class:`SelfSimilarSource` emits application messages ("bursts") whose
sizes follow a bounded Pareto over [128 B, 100 KB]; the NIC segments a
burst into back-to-back MTU packets to one destination.  Burstiness
comes from the heavy-tailed *sizes* (ON periods); each burst is followed
by a gap that compensates it exactly: after an ``s``-byte burst the
source is idle for ``s/rate``.

That gap pins the long-run rate to the nominal one while keeping the
heavy-tailed ON-period distribution that produces self-similar
aggregates.  Independent Pareto gaps would not: over a finite window
their sample mean converges from below (infinite variance), so the
*realized* rate would overshoot the nominal one and silently raise the
offered load of every experiment by tens of percent.

Traffic rides the **unregulated VC**: no bandwidth reservation, no
delivery guarantee.  Deadlines are still stamped, from a per-host
*aggregated flow record* whose ``BW_avg`` is the class's configured
weight share of the link -- Section 3's "several aggregated flows, each
one with a different bandwidth to compute deadlines".  Under contention
the EDF fabric then serves the classes in proportion to those weights,
which is exactly the differentiation Figure 4 demonstrates (and which
the Traditional architecture cannot provide).
"""

from __future__ import annotations

from typing import Optional

from repro.constants import VC_BEST_EFFORT
from repro.core.deadline import RateBasedStamper
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.rng import RandomStream
from repro.traffic.base import TrafficSource
from repro.traffic.distributions import BoundedPareto

__all__ = ["SelfSimilarSource"]


class SelfSimilarSource(TrafficSource):
    """Heavy-tailed burst generator for one best-effort class at one host."""

    def __init__(
        self,
        fabric: Fabric,
        src: int,
        rate_bytes_per_ns: float,
        rng: RandomStream,
        *,
        tclass: str = "best-effort",
        deadline_bw_bytes_per_ns: Optional[float] = None,
        size_alpha: float = 1.3,
        size_range: tuple[int, int] = (128, 102_400),
        vc: int = VC_BEST_EFFORT,
    ):
        super().__init__(fabric, src, f"{tclass}@h{src}", rng)
        if rate_bytes_per_ns <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_ns}")
        self.rate = rate_bytes_per_ns
        self.tclass = tclass
        self.sizes = BoundedPareto(size_alpha, *size_range)
        #: deadline-generation bandwidth of this class's aggregated record
        self.deadline_bw = (
            deadline_bw_bytes_per_ns
            if deadline_bw_bytes_per_ns is not None
            else fabric.params.bytes_per_ns
        )
        self._flow_kwargs = {
            "kind": FlowKind.RATE,
            "vc": vc,
            "bw_bytes_per_ns": self.deadline_bw,
        }
        #: one aggregated record per (host, class): all destinations share
        #: a single virtual clock
        self.stamper = RateBasedStamper(self.deadline_bw)

    def _emit(self) -> Optional[float]:
        size = self.sizes.sample_int(self.rng)
        flow = self._flow_to(self._pick_dst())
        self.fabric.submit(flow, size)
        self._account(size)
        # Exactly restore the average rate after this burst.
        return size / self.rate
