"""Self-similar best-effort traffic (Table 1, rows 3-4).

"Self-similar internet-like traffic ... composed of bursts of packets
heading to the same destination.  The packet size is governed by a
Pareto distribution" (Section 4.2, following Jain's methodology book).

A :class:`SelfSimilarSource` emits application messages ("bursts") whose
sizes follow a bounded Pareto over [128 B, 100 KB]; the NIC segments a
burst into back-to-back MTU packets to one destination.  Burstiness
comes from the heavy-tailed *sizes* (ON periods); each burst is followed
by a gap proportional to the burst it compensates (``size/rate``,
optionally stretched by a heavy-tailed factor in ``gap_mode="pareto"``).

Gap policy matters for calibration: with independent Pareto gaps the
*realized* rate over a finite window systematically overshoots the
nominal rate (the sample mean of an infinite-variance Pareto converges
from below), which would silently raise the offered load of every
experiment by tens of percent.  The default ``gap_mode="compensating"``
pins the long-run rate exactly -- after emitting an ``s``-byte burst the
source is idle for ``s/rate`` -- while keeping the heavy-tailed ON-period
distribution that produces self-similar aggregates.  The workload
calibration tests quantify both modes.

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
from repro.traffic.distributions import BoundedPareto, pareto_interarrival

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
        gap_alpha: float = 1.9,
        gap_mode: str = "compensating",
        vc: int = VC_BEST_EFFORT,
    ):
        super().__init__(fabric, src, f"{tclass}@h{src}", rng)
        if rate_bytes_per_ns <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_ns}")
        if gap_mode not in ("compensating", "pareto"):
            raise ValueError(f"gap_mode must be 'compensating' or 'pareto', got {gap_mode!r}")
        self.rate = rate_bytes_per_ns
        self.tclass = tclass
        self.gap_alpha = gap_alpha
        self.gap_mode = gap_mode
        self.sizes = BoundedPareto(size_alpha, *size_range)
        # Mean of the Pareto interarrival process, kept float so the
        # sampler is unbiased; the schedule sink rounds per sample.
        self.mean_gap_ns = self.sizes.mean / rate_bytes_per_ns  # simlint: allow-float-time-flow
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
        if self.gap_mode == "compensating":
            # Exactly restore the average rate after this burst.
            return size / self.rate
        return pareto_interarrival(self.rng, self.mean_gap_ns, self.gap_alpha)
