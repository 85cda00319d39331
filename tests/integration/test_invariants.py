"""Fabric-wide invariants: losslessness, in-order delivery, credit health.

These run the full Table 1 mix over every architecture on the tiny
network and check the structural properties the paper takes as given:
credit flow control means zero packet loss, and fixed routing plus the
take-over queue's theorem mean per-flow FIFO delivery end to end.
"""

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import scaled_video_mix
from repro.network.fabric import Fabric
from repro.sim import units
from repro.sim.rng import RandomStreams
from repro.traffic.mix import build_mix
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for


@pytest.fixture(params=ARCHITECTURE_NAMES)
def loaded_run(request, monkeypatch, tiny_topology):
    """A 300 us full-load run; returns (fabric, mix)."""
    engine = engine_factory_for(monkeypatch, request.param)()
    fabric = Fabric(tiny_topology, ARCHITECTURES[request.param], engine=engine)
    mix = build_mix(fabric, RandomStreams(11), scaled_video_mix(1.0, time_scale=0.02))
    deliveries = []
    fabric.subscribe_delivery(lambda p, t: deliveries.append(p))
    mix.start()
    fabric.run(until=300 * units.US)
    return fabric, mix, deliveries


class TestLosslessness:
    def test_packet_conservation(self, loaded_run):
        """Every submitted packet is delivered, queued, or on a wire --
        none vanish (no drops) and none duplicate."""
        fabric, mix, _ = loaded_run
        submitted = sum(h.packets_submitted for h in fabric.hosts)
        received = sum(h.packets_received for h in fabric.hosts)
        queued = fabric.queued_in_hosts() + fabric.queued_in_switches()
        in_flight = submitted - received - queued
        assert in_flight >= 0
        # Wires hold at most one packet per link (store-and-forward).
        assert in_flight <= len(fabric.links)

    def test_drain_to_zero_and_credits_restore(self, loaded_run):
        """After sources stop, the network drains completely and every
        credit counter returns to its initial value (no credit leaks)."""
        fabric, mix, _ = loaded_run
        mix.stop()
        fabric.engine.run(max_events=30_000_000)  # drain whatever remains
        assert fabric.packets_in_flight() == 0
        for link in fabric.links.values():
            assert link.channel.credits == list(link.channel.initial), (
                f"credit leak on {link}"
            )

    def test_deliveries_unique(self, loaded_run):
        _, _, deliveries = loaded_run
        uids = [p.uid for p in deliveries]
        assert len(uids) == len(set(uids))


class TestInOrderDelivery:
    def test_per_flow_fifo_end_to_end(self, loaded_run):
        """No out-of-order delivery for any flow under any architecture
        (appendix Theorem 3, now across the whole multi-hop fabric)."""
        _, _, deliveries = loaded_run
        last_seq: dict[int, int] = {}
        for pkt in deliveries:
            previous = last_seq.get(pkt.flow_id, -1)
            assert pkt.seq > previous, (
                f"flow {pkt.flow_id} delivered seq {pkt.seq} after {previous}"
            )
            last_seq[pkt.flow_id] = pkt.seq

    def test_regulated_messages_arrive_contiguously_ordered(self, loaded_run):
        _, _, deliveries = loaded_run
        per_flow_msgs: dict[int, list[int]] = {}
        for pkt in deliveries:
            per_flow_msgs.setdefault(pkt.flow_id, []).append(pkt.msg_id)
        for flow_id, msgs in per_flow_msgs.items():
            assert msgs == sorted(msgs)


class TestHeaderDiscipline:
    def test_switch_never_reads_per_flow_header_fields(self):
        """The paper's constraint: scheduling uses only the deadline and
        the route.  Statically verify the switch implementation never
        touches flow identity, sequence numbers, or the eligible tag."""
        import inspect

        import repro.network.switch as switch_mod

        source = inspect.getsource(switch_mod)
        for forbidden in (".flow_id", ".seq", ".eligible", ".msg_id", ".birth", ".tclass"):
            assert forbidden not in source, (
                f"switch reads {forbidden}: violates the no-flow-state constraint"
            )

    def test_arbiters_use_only_deadline_and_uid(self):
        import inspect

        import repro.core.arbiter as arbiter_mod

        source = inspect.getsource(arbiter_mod)
        for forbidden in (".flow_id", ".seq", ".eligible", ".src", ".dst"):
            assert forbidden not in source
