"""Control traffic: small latency-critical messages (Table 1, row 1).

Models management/administration messages: sizes uniform in
[128 B, 2 KB], Poisson arrivals, destinations uniform over the other
hosts.  Per Section 3.1, control traffic gets **no admission control**
and its deadlines are computed with ``BW_avg`` equal to the link
bandwidth, so a control packet's deadline is essentially
``now + serialization time`` -- the earliest possible -- giving it
maximum priority under EDF.

One host keeps a *single* control record: all control flows from this
source share one deadline stamper (one virtual clock), exactly as a
per-host control record would in hardware.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.deadline import ControlStamper
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.rng import RandomStream
from repro.traffic.base import TrafficSource

__all__ = ["ControlSource"]


class ControlSource(TrafficSource):
    """Poisson stream of small control messages from one host."""

    def __init__(
        self,
        fabric: Fabric,
        src: int,
        rate_bytes_per_ns: float,
        rng: RandomStream,
        *,
        size_range: Tuple[int, int] = (128, 2048),
        tclass: str = "control",
        vc: Optional[int] = None,
    ):
        super().__init__(fabric, src, f"control@h{src}", rng)
        if rate_bytes_per_ns <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_ns}")
        lo, hi = size_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad size range {size_range}")
        self.rate = rate_bytes_per_ns
        self.size_range = size_range
        self.tclass = tclass
        self._flow_kwargs = {"kind": FlowKind.CONTROL, "vc": vc}
        self.mean_size = (lo + hi) / 2.0
        # Mean of a continuous distribution, kept float for expovariate;
        # the schedule sink rounds per sample (base.py _tick).
        self.mean_gap_ns = self.mean_size / rate_bytes_per_ns  # simlint: allow-float-time-flow
        #: one shared per-host control record (Section 3.1): all control
        #: flows from this host share one virtual clock
        self.stamper = ControlStamper(fabric.params.bytes_per_ns)

    def _emit(self) -> Optional[float]:
        size = self.rng.randint(*self.size_range)
        flow = self._flow_to(self._pick_dst())
        self.fabric.submit(flow, size)
        self._account(size)
        return self.rng.expovariate(1.0 / self.mean_gap_ns)
