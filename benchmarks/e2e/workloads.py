"""The benchmark's workloads: names and reasons live in BENCHMARK.json,
the configuration behind each name lives here.

All of them run ``scaled_video_mix(load, 0.02)`` with the Table-1 shares
and default ``FabricParams``; the seed comes from ``--seed``.  Windows
are fixed simulated time, so each run is a closed, fixed input and the
throughput figure is work completed per host second at a stated size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class Workload:
    topology: str
    architecture: str
    load: float
    warmup_us: int
    measure_us: int
    #: Attach MetricsRegistry + PacketTracer(head, rate 1.0) + Trace ring
    #: + a 50 us heartbeat -- every observer the simulator has.
    observe: bool = False
    #: Name of the same configuration without observers.  Its ``classes``
    #: digest must equal this workload's (observation never perturbs a
    #: delivery) and ``obs.overhead_x`` is this workload's wall over its.
    baseline: Optional[str] = None

    def spec(self, seed: int, profile: bool) -> Dict[str, Any]:
        """What one child process is told to run."""
        doc = asdict(self)
        del doc["baseline"]
        doc["seed"] = seed
        doc["profile"] = profile
        return doc


WORKLOADS: Dict[str, Workload] = {
    "small_mix": Workload("small", "advanced-2vc", 0.9, 200, 1300),
    "paper_edf": Workload("paper", "advanced-2vc", 0.9, 100, 400),
    "paper_rr": Workload("paper", "traditional-2vc", 0.9, 100, 400),
    "scale512_cold": Workload("scale512", "advanced-2vc", 1.0, 10, 10),
    "small_obs": Workload(
        "small", "advanced-2vc", 0.9, 200, 1300, observe=True, baseline="small_mix"
    ),
}
