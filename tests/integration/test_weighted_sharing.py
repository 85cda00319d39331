"""Per-flow weighted bandwidth sharing (Section 3 / Figure 4's fine print).

"Not only can we differentiate multiple classes within a single VC, but
we can guarantee minimum bandwidth if we are careful assigning weights
to the different best-effort flows."

Scenario: three best-effort senders blast one victim host far beyond
link capacity; their aggregated flow records carry deadline bandwidths
5:3:2.  Under the EDF architectures the victim link's capacity must be
divided ~proportionally (Virtual Clock's classic property), giving each
flow its weight as a *minimum* share; the traditional round-robin
switch splits roughly evenly regardless of weights.
"""

import pytest

from repro.constants import VC_BEST_EFFORT
from repro.core.architectures import ARCHITECTURES
from repro.network.fabric import Fabric
from repro.sim import units
from tests.traffic.cbr import CbrSource
from tests.stats.per_flow import PerFlowCollector

VICTIM = 0
WEIGHTS = {1: 0.5, 2: 0.3, 3: 0.2}  # deadline bandwidth per sender (B/ns)
MEASURE = 1_000 * units.US


def run_weighted(tiny_topology, arch: str):
    fabric = Fabric(tiny_topology, ARCHITECTURES[arch])
    flows = PerFlowCollector()
    fabric.subscribe_delivery(flows.on_delivery)
    senders = {}
    for src, weight in WEIGHTS.items():
        source = CbrSource(
            fabric,
            src,
            VICTIM,
            weight,  # offered == deadline bandwidth: each wants its share
            message_bytes=2048,
            tclass="best-effort",
            vc=VC_BEST_EFFORT,
        )
        # Oversubscribe: everyone actually offers 90% of the link, but
        # stamps deadlines against its assigned weight.
        source.rate = 0.9
        source.period_ns = source.message_bytes / 0.9
        senders[src] = source
        source.start(at=0)
    fabric.run(until=MEASURE)
    served = {
        src: next(
            f for f in flows.by_class("best-effort") if f.src == src
        ).throughput_bytes_per_ns(MEASURE)
        for src in WEIGHTS
    }
    return served


class TestWeightedSharing:
    @pytest.mark.parametrize("arch", ["advanced-2vc", "ideal", "simple-2vc"])
    def test_edf_serves_proportionally_to_weights(self, tiny_topology, arch):
        served = run_weighted(tiny_topology, arch)
        total = sum(served.values())
        assert total > 0.8  # victim link is kept busy
        for src, weight in WEIGHTS.items():
            share = served[src] / total
            assert share == pytest.approx(weight, rel=0.25), (src, served)

    @pytest.mark.parametrize("arch", ["advanced-2vc", "ideal"])
    def test_minimum_bandwidth_guarantee(self, tiny_topology, arch):
        """Each flow receives at least ~its weight of the link, despite
        the 2.7x oversubscription."""
        served = run_weighted(tiny_topology, arch)
        for src, weight in WEIGHTS.items():
            assert served[src] > 0.8 * weight

    def test_traditional_ignores_weights(self, tiny_topology):
        served = run_weighted(tiny_topology, "traditional-2vc")
        total = sum(served.values())
        assert total > 0.8
        # Round-robin + FIFO: all three get roughly equal service.
        shares = sorted(v / total for v in served.values())
        assert shares[-1] - shares[0] < 0.15
