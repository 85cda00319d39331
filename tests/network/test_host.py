"""Tests for the end-host NIC (Section 3.2's host organization)."""

import pytest

from repro.constants import VC_BEST_EFFORT, VC_REGULATED
from repro.core.architectures import ADVANCED_2VC, TRADITIONAL_2VC
from repro.core.eligible import EligiblePolicy
from repro.core.flow import FlowKind, FlowRegistry
from repro.core.invariants import InvariantViolation
from repro.network.host import Host
from repro.network.link import Link


class Sink:
    def __init__(self):
        self.received = []

    def accept(self, pkt, link):
        self.received.append((pkt, link.engine.now))
        link.return_credit(pkt.vc, pkt.size)


@pytest.fixture
def rig(engine):
    """A host wired to a sink over one link (plus a registry of flows)."""

    class Rig:
        def __init__(self, architecture=ADVANCED_2VC, eligible_offset=20_000):
            self.host = Host(
                engine,
                "h0",
                0,
                architecture,
                eligible_policy=EligiblePolicy(eligible_offset),
                mtu=2048,
            )
            self.sink = Sink()
            self.link = Link(
                engine,
                src="h0",
                src_port=0,
                dst="sink",
                dst_port=0,
                bytes_per_ns=1.0,
                prop_delay_ns=0,
                buffer_bytes_per_vc=(8192, 8192),
            )
            self.link.receiver = self.sink
            self.host.attach_out(self.link)
            self.registry = FlowRegistry()

        def flow(self, **kwargs):
            defaults = dict(
                src=0, dst=1, tclass="t", kind=FlowKind.RATE, bw_bytes_per_ns=1.0
            )
            defaults.update(kwargs)
            return self.registry.create(**defaults)

    return Rig


def _segment(rig, message_bytes):
    r = rig()
    return [p.size for p in r.host.submit_message(r.flow(), message_bytes)]


class TestSegmentation:
    def test_exact_multiple(self, rig):
        assert _segment(rig, 4096) == [2048, 2048]

    def test_remainder(self, rig):
        assert _segment(rig, 5000) == [2048, 2048, 904]

    def test_small_message_single_packet(self, rig):
        assert _segment(rig, 100) == [100]

    def test_invalid_size(self, rig):
        r = rig()
        flow = r.flow()
        with pytest.raises(ValueError, match="message size must be a positive int"):
            r.host.submit_message(flow, 0)
        # Rejected before anything was taken from the flow.
        assert (flow.next_msg, flow.next_seq, r.host.packets_submitted) == (0, 0, 0)

    @pytest.mark.parametrize("size", [100.0, 4096.5, True], ids=["float", "fraction", "bool"])
    def test_non_int_size_rejected(self, rig, size):
        # A float used to fail inside list arithmetic with a TypeError, and
        # True became a 1-byte packet; whole bytes are an int.
        r = rig()
        flow = r.flow()
        with pytest.raises(ValueError, match="positive int"):
            r.host.submit_message(flow, size)
        assert (flow.next_msg, r.host.packets_submitted) == (0, 0)


class TestStamping:
    def test_rate_flow_packets_carry_chained_deadlines(self, rig, engine):
        r = rig()
        flow = r.flow(bw_bytes_per_ns=0.5)
        pkts = r.host.submit_message(flow, 4096)
        assert [p.deadline for p in pkts] == [4096, 8192]

    def test_frame_flow_spreads_target_over_parts(self, rig, engine):
        r = rig()
        flow = r.flow(kind=FlowKind.FRAME, bw_bytes_per_ns=None, target_latency_ns=8000)
        pkts = r.host.submit_message(flow, 4096)
        assert [p.deadline for p in pkts] == [4000, 8000]

    def test_message_metadata(self, rig):
        r = rig()
        flow = r.flow()
        pkts = r.host.submit_message(flow, 5000)
        assert [p.msg_seq for p in pkts] == [0, 1, 2]
        assert all(p.msg_parts == 3 for p in pkts)
        assert len({p.msg_id for p in pkts}) == 1
        again = r.host.submit_message(flow, 100)
        assert again[0].msg_id != pkts[0].msg_id

    def test_wrong_host_rejected(self, rig):
        r = rig()
        flow = r.flow(src=3, dst=1)
        with pytest.raises(ValueError):
            r.host.submit_message(flow, 100)

    def test_sequence_numbers_monotone_per_flow(self, rig):
        r = rig()
        flow = r.flow()
        a = r.host.submit_message(flow, 2048)
        b = r.host.submit_message(flow, 2048)
        assert b[0].seq == a[0].seq + 1


class TestEligibleTime:
    def test_smoothed_packet_held_until_eligible(self, rig, engine):
        r = rig(eligible_offset=1000)
        flow = r.flow(kind=FlowKind.RATE, bw_bytes_per_ns=0.01, smoothing=True)
        # deadline = 100/0.01 = 10_000; eligible = 9_000.
        r.host.submit_message(flow, 100)
        engine.run(until=8_999)
        assert r.sink.received == []
        assert r.host.pending_packets() == 1
        engine.run(until=9_200)
        assert len(r.sink.received) == 1
        assert r.sink.received[0][1] >= 9_000

    def test_unsmoothed_flow_injects_immediately(self, rig, engine):
        r = rig(eligible_offset=1000)
        flow = r.flow(bw_bytes_per_ns=0.01, smoothing=False)
        r.host.submit_message(flow, 100)
        engine.run_all()
        assert r.sink.received[0][1] == 100  # just serialization

    def test_traditional_host_ignores_smoothing(self, rig, engine):
        r = rig(architecture=TRADITIONAL_2VC, eligible_offset=1000)
        flow = r.flow(bw_bytes_per_ns=0.01, smoothing=True)
        r.host.submit_message(flow, 100)
        engine.run_all()
        assert r.sink.received[0][1] == 100

    def test_multiple_pending_release_in_eligible_order(self, rig, engine):
        r = rig(eligible_offset=0)  # hold until the deadline itself
        slow = r.flow(bw_bytes_per_ns=0.001, smoothing=True)  # D = 100_000
        fast = r.flow(bw_bytes_per_ns=0.01, smoothing=True)  # D = 10_000
        r.host.submit_message(slow, 100)
        r.host.submit_message(fast, 100)
        engine.run_all()
        deadlines = [p.deadline for p, _ in r.sink.received]
        assert deadlines == sorted(deadlines)


class TestInjectionOrder:
    def test_edf_host_injects_by_deadline(self, rig, engine):
        r = rig()
        late = r.flow(bw_bytes_per_ns=0.001)  # huge deadline
        soon = r.flow(bw_bytes_per_ns=1.0)
        # Block the link so both are queued when it frees.
        blocker = r.flow(bw_bytes_per_ns=1.0)
        r.host.submit_message(blocker, 2048)
        r.host.submit_message(late, 2048)
        r.host.submit_message(soon, 2048)
        engine.run_all()
        flows = [p.flow_id for p, _ in r.sink.received]
        assert flows == [blocker.spec.flow_id, soon.spec.flow_id, late.spec.flow_id]

    def test_traditional_host_injects_fifo(self, rig, engine):
        r = rig(architecture=TRADITIONAL_2VC)
        late = r.flow(bw_bytes_per_ns=0.001)
        soon = r.flow(bw_bytes_per_ns=1.0)
        blocker = r.flow(bw_bytes_per_ns=1.0)
        r.host.submit_message(blocker, 2048)
        r.host.submit_message(late, 2048)
        r.host.submit_message(soon, 2048)
        engine.run_all()
        flows = [p.flow_id for p, _ in r.sink.received]
        assert flows == [blocker.spec.flow_id, late.spec.flow_id, soon.spec.flow_id]

    def test_regulated_beats_best_effort(self, rig, engine):
        r = rig()
        best_effort = r.flow(vc=VC_BEST_EFFORT, bw_bytes_per_ns=1.0)
        regulated = r.flow(vc=VC_REGULATED, bw_bytes_per_ns=0.0001)  # late deadline
        blocker = r.flow(bw_bytes_per_ns=1.0)
        r.host.submit_message(blocker, 2048)
        r.host.submit_message(best_effort, 2048)
        r.host.submit_message(regulated, 2048)
        engine.run_all()
        vcs = [p.vc for p, _ in r.sink.received]
        assert vcs == [0, 0, 1]  # regulated first despite its far deadline

    def test_best_effort_flows_while_vc0_credit_blocked(self, rig, engine):
        r = rig()
        regulated = r.flow(vc=VC_REGULATED, bw_bytes_per_ns=1.0)
        best_effort = r.flow(vc=VC_BEST_EFFORT, bw_bytes_per_ns=1.0)
        # Exhaust VC0 credits: sink in this rig returns credits, so consume
        # them manually to simulate a congested downstream VC0 buffer.
        r.link.channel.credits[0] -= 8192
        r.host.submit_message(regulated, 2048)
        r.host.submit_message(best_effort, 2048)
        engine.run_all()
        vcs = [p.vc for p, _ in r.sink.received]
        assert vcs == [1]  # VC1 used the wire; VC0 still waiting
        assert r.host.ready_packets(VC_REGULATED) == 1


class TestLinkBacklog:
    def test_backlog_counts_the_ready_packets(self, rig, engine):
        r = rig()
        regulated = r.flow(vc=VC_REGULATED, bw_bytes_per_ns=1.0)
        r.link.channel.credits[0] -= 8192  # VC0 credit-blocked downstream
        r.host.submit_message(regulated, 3 * 2048)
        engine.run_all()
        assert r.link.backlog == r.host.ready_packets(VC_REGULATED) == 3
        r.host.check_backlog()
        r.link.backlog -= 1
        with pytest.raises(InvariantViolation, match="backlog"):
            r.host.check_backlog()

    def test_smoothed_packets_count_once_released(self, rig, engine):
        r = rig()
        smoothed = r.flow(bw_bytes_per_ns=0.01, smoothing=True)
        r.host.submit_message(smoothed, 2048 * 3)
        assert r.host.pending_packets() > 0  # held back, not counted yet
        r.host.check_backlog()
        engine.run_all()
        assert r.link.backlog == 0 and len(r.sink.received) == 3
        r.host.check_backlog()


class TestReceiveSide:
    def test_delivery_callback_and_counters(self, rig, engine):
        r = rig()
        deliveries = []
        dst_host = Host(
            engine, "h1", 1, ADVANCED_2VC, on_delivery=lambda p, t: deliveries.append(t)
        )
        back_link = Link(
            engine,
            src="x",
            src_port=0,
            dst="h1",
            dst_port=0,
            bytes_per_ns=1.0,
            prop_delay_ns=0,
            buffer_bytes_per_vc=(8192, 8192),
        )
        dst_host.attach_in(back_link)
        flow = r.flow(dst=1)
        pkt = r.host.submit_message(flow, 100)[0]
        back_link.channel.credits[0] -= 100
        back_link.transmit(pkt)
        engine.run_all()
        assert deliveries
        assert pkt.deliver is not None
        assert dst_host.packets_received == 1

    def test_misrouted_packet_rejected(self, rig, engine):
        r = rig()
        wrong = Host(engine, "h9", 9, ADVANCED_2VC)
        link = Link(
            engine,
            src="x",
            src_port=0,
            dst="h9",
            dst_port=0,
            bytes_per_ns=1.0,
            prop_delay_ns=0,
            buffer_bytes_per_vc=(8192, 8192),
        )
        wrong.attach_in(link)
        flow = r.flow(dst=1)  # destined to host 1, not 9
        pkt = r.host.submit_message(flow, 100)[0]
        with pytest.raises(ValueError):
            wrong.accept(pkt, link)
