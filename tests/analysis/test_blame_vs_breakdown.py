"""Where a class's latency goes, answered by the span tracer, against the
float delivery-subscriber it replaced (``breakdown_oracle.py``).

``host.eligible_wait + host.queue_wait`` of a ``trace blame --all`` report
is the breakdown's source hold and the other three stages its network
time.  One run feeds both: head sampling at rate 1.0 with a ring nothing
falls out of, and no warm-up filter on either side.
"""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.experiments.presets import make_topology
from repro.network.fabric import Fabric
from repro.obs.blame import analyze_blame
from repro.obs.tracing import PacketTracer
from repro.sim.rng import RandomStreams
from repro.traffic.mix import build_mix
from tests.analysis.breakdown_oracle import LatencyBreakdown
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for
from tests.sim.test_engine_differential import _figure_configs

SOURCE_HOLD = ("host.eligible_wait", "host.queue_wait")


@pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
@pytest.mark.parametrize("figure", sorted(_figure_configs()))
def test_blame_splits_latency_like_the_breakdown(monkeypatch, figure, arch):
    engine_factory = engine_factory_for(monkeypatch, arch)
    config = _figure_configs()[figure].with_(architecture=arch, warmup_ns=0)
    tracer = PacketTracer(policy="head", rate=1.0, capacity=1 << 16, seed=config.seed)
    fabric = Fabric(
        make_topology(config.topology),
        ARCHITECTURES[arch],
        config.params,
        engine=engine_factory(),
        tracer=tracer,
        packet_pooling=True,
    )
    breakdown = LatencyBreakdown()
    fabric.subscribe_delivery(breakdown.on_delivery)
    build_mix(fabric, RandomStreams(config.seed), config.mix_config).start()
    fabric.run(until=config.end_ns)
    assert (tracer.unsampled, tracer.dropped) == (0, 0)

    report = analyze_blame(tracer.records, missed_only=False)
    assert sorted(report.classes) == sorted(breakdown.classes)
    for tclass, blame in report.classes.items():
        entry = breakdown.get(tclass)
        hold = sum(blame.stage_totals.get(stage, 0) for stage in SOURCE_HOLD)
        assert blame.packets == entry.source_hold.count == entry.network.count > 0
        assert hold == pytest.approx(entry.source_hold.mean * entry.source_hold.count, rel=1e-9)
        assert blame.e2e_total_ns - hold == pytest.approx(
            entry.network.mean * entry.network.count, rel=1e-9
        )
