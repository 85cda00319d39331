"""Constant-bit-rate source: a test driver.

Not part of the paper's Table 1 mix and run by no CLI path, but
deterministic arrivals make test assertions exact (hot spots, weighted
sharing, the source base class).  Emits fixed-size messages at fixed
intervals on one flow, which may be regulated (reserved) or best-effort.
"""

from __future__ import annotations

from typing import Optional

from repro.core.flow import FlowKind, FlowState
from repro.network.fabric import Fabric
from repro.sim.rng import RandomStream, local_stream
from repro.traffic.base import TrafficSource


class CbrSource(TrafficSource):
    """Fixed-size messages every ``message_bytes / rate`` nanoseconds."""

    def __init__(
        self,
        fabric: Fabric,
        src: int,
        dst: int,
        rate_bytes_per_ns: float,
        *,
        message_bytes: int = 2048,
        tclass: str = "cbr",
        vc: Optional[int] = None,
        smoothing: bool = False,
        rng: Optional[RandomStream] = None,
    ):
        # CBR emission is deterministic; the stream only exists so the
        # TrafficSource interface is uniform.  Derive it by name anyway so
        # any future stochastic knob stays reproducible per source.
        super().__init__(
            fabric, src, f"cbr@h{src}->h{dst}", rng or local_stream(f"traffic.cbr.h{src}.h{dst}")
        )
        if rate_bytes_per_ns <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_ns}")
        if message_bytes <= 0:
            raise ValueError(f"message size must be positive, got {message_bytes}")
        self.dst = dst
        self.rate = rate_bytes_per_ns
        self.message_bytes = message_bytes
        self.period_ns = round(message_bytes / rate_bytes_per_ns)
        self.flow: FlowState = fabric.open_flow(
            src,
            dst,
            tclass,
            kind=FlowKind.RATE,
            vc=vc,
            bw_bytes_per_ns=rate_bytes_per_ns,
            smoothing=smoothing,
        )

    def _emit(self) -> Optional[float]:
        self.fabric.submit(self.flow, self.message_bytes)
        self._account(self.message_bytes)
        return self.period_ns
