"""Direct unit tests of the switch's arbitration and credit discipline."""

import pytest

from repro.core.architectures import (
    ADVANCED_2VC,
    IDEAL,
    IDEAL_PIPELINED,
    SIMPLE_2VC,
    TRADITIONAL_2VC,
)
from repro.core.invariants import InvariantViolation
from repro.network.link import Link
from repro.network.switch import Switch
from tests.helpers import mkpkt


class NullSender:
    def pull(self, link):
        pass


class Sink:
    """Endpoint that consumes instantly and returns credits."""

    def __init__(self, auto_credit=True):
        self.received = []
        self.auto_credit = auto_credit
        self.held = []  # (link, vc, size) credits withheld when not auto

    def accept(self, pkt, link):
        self.received.append((pkt, link.engine.now))
        if self.auto_credit:
            link.return_credit(pkt.vc, pkt.size)
        else:
            self.held.append((link, pkt.vc, pkt.size))

    def release_credits(self):
        for link, vc, size in self.held:
            link.return_credit(vc, size)
        self.held.clear()


class SwitchRig:
    """A single switch with stub feeders on inputs and sinks on outputs."""

    def __init__(self, engine, architecture, n_ports=4, buf=8192, prop=0):
        self.engine = engine
        self.switch = Switch(engine, "sw", n_ports, architecture)
        self.in_links = []
        self.sinks = []
        self.out_links = []
        for port in range(n_ports):
            in_link = Link(
                engine,
                src=f"src{port}",
                src_port=0,
                dst="sw",
                dst_port=port,
                bytes_per_ns=1.0,
                prop_delay_ns=prop,
                buffer_bytes_per_vc=(buf, buf),
            )
            in_link.sender = NullSender()
            self.switch.attach_in(port, in_link)
            self.in_links.append(in_link)

            sink = Sink()
            out_link = Link(
                engine,
                src="sw",
                src_port=port,
                dst=f"dst{port}",
                dst_port=0,
                bytes_per_ns=1.0,
                prop_delay_ns=prop,
                buffer_bytes_per_vc=(buf, buf),
            )
            out_link.receiver = sink
            self.switch.attach_out(port, out_link)
            self.sinks.append(sink)
            self.out_links.append(out_link)

    def feed(self, in_port, deadline, *, out_port=0, size=256, vc=0, **kw):
        """Inject a packet into an input port (bypassing wire timing).

        Consumes the in-link's credit exactly as a real upstream sender
        would, so the switch's credit return balances.  Every feed also
        checks the switch's backlogged lists against its VOQs.
        """
        pkt = mkpkt(deadline, size=size, vc=vc, path=(out_port,), **kw)
        self.in_links[in_port].channel.consume(vc, size)
        self.switch.accept(pkt, self.in_links[in_port])
        self.switch.check_backlogged()
        return pkt

    def departures(self, out_port=0):
        return [p.deadline for p, _ in self.sinks[out_port].received]


class TestEDFArbitration:
    def test_lowest_deadline_head_wins_across_inputs(self, engine):
        rig = SwitchRig(engine, IDEAL)
        # The first packet grabs the idle wire immediately (work
        # conservation); the contenders arrive while it serializes.
        rig.feed(3, 1, out_port=0)
        rig.feed(0, 300)
        rig.feed(1, 100)
        rig.feed(2, 200)
        engine.run_all()
        assert rig.departures() == [1, 100, 200, 300]

    def test_simple_fifo_suffers_order_error(self, engine):
        """A high-deadline packet at a FIFO head blocks a later low-deadline
        arrival on the same input: the Section 3.4 order error."""
        rig = SwitchRig(engine, SIMPLE_2VC)
        rig.feed(0, 500)  # arrives first, heads the input FIFO
        rig.feed(0, 10)  # stuck behind it
        rig.feed(1, 100)
        engine.run_all()
        # 500 transmits first (it was the head when arbitration ran),
        # then 100 beats the still-queued 10's position? No -- 10 is still
        # behind nothing now, but 100 is the other input's head with a
        # larger uid... deadlines decide: 10 < 100.
        assert rig.departures()[0] == 500
        assert set(rig.departures()) == {500, 10, 100}

    def test_takeover_queue_avoids_the_order_error(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        first = rig.feed(0, 500)
        # The switch starts transmitting 500 immediately (idle link), so
        # feed another blocker to occupy the ordered queue, then the
        # low-deadline packet that should take over.
        rig.feed(0, 600)
        rig.feed(0, 10)
        engine.run_all()
        order = rig.departures()
        assert order[0] == 500  # already on the wire; nothing can stop it
        assert order[1] == 10  # took over ahead of 600
        assert order[2] == 600

    def test_ideal_heap_reorders_within_input(self, engine):
        rig = SwitchRig(engine, IDEAL)
        rig.feed(0, 500)
        rig.feed(0, 600)
        rig.feed(0, 10)
        engine.run_all()
        assert rig.departures() == [500, 10, 600]

    def test_deadline_tie_prefers_older_packet(self, engine):
        rig = SwitchRig(engine, IDEAL)
        older = rig.feed(0, 100)
        newer = rig.feed(1, 100)
        engine.run_all()
        received = [p for p, _ in rig.sinks[0].received]
        assert received == [older, newer]


class TestVCPriority:
    @pytest.mark.parametrize("arch", [IDEAL, SIMPLE_2VC, ADVANCED_2VC, TRADITIONAL_2VC])
    def test_regulated_has_absolute_priority(self, engine, arch):
        rig = SwitchRig(engine, arch)
        rig.feed(0, 10, vc=1)  # best-effort arrives first, grabs the wire
        rig.feed(1, 10_000, vc=1)
        rig.feed(2, 99_999, vc=0)  # regulated with a *huge* deadline
        engine.run_all()
        received = [(p.vc, p.deadline) for p, _ in rig.sinks[0].received]
        # After the in-flight BE packet, VC0 goes before the queued BE one.
        assert received[0] == (1, 10)
        assert received[1] == (0, 99_999)

    def test_best_effort_uses_leftover_bandwidth(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.feed(0, 100, vc=0)
        rig.feed(1, 50, vc=1)
        engine.run_all()
        assert len(rig.sinks[0].received) == 2


class TestCreditDiscipline:
    def test_blocked_min_deadline_candidate_blocks_its_vc(self, engine):
        """EDF architectures: when the chosen candidate lacks credits, no
        other VC0 packet may overtake it (appendix flow-control rule)."""
        rig = SwitchRig(engine, ADVANCED_2VC, buf=4096)
        rig.sinks[0].auto_credit = False
        # Occupy half the output credit window; the sink withholds it.
        rig.feed(0, 10, size=2048)
        engine.run_all()
        rig.switch.check_backlogged()
        assert len(rig.sinks[0].received) == 1
        # Two candidates: min-deadline 20 is too big for the remaining
        # 2048 credits; 30 is small and would fit -- but must NOT pass.
        rig.feed(1, 20, size=2560)
        rig.feed(2, 30, size=64)
        engine.run_all()
        assert len(rig.sinks[0].received) == 1  # both stuck behind the rule
        # The blocked head and the packet behind the rule both stay
        # listed: the credit return must find them without a rescan.
        rig.switch.check_backlogged()
        assert len(rig.switch.voq(1, 0, 0)) == len(rig.switch.voq(2, 0, 0)) == 1
        rig.sinks[0].auto_credit = True
        rig.sinks[0].release_credits()
        engine.run_all()
        rig.switch.check_backlogged()
        assert rig.departures() == [10, 20, 30]

    def test_traditional_masks_creditless_candidates(self, engine):
        """The conventional switch skips requests that lack credits."""
        rig = SwitchRig(engine, TRADITIONAL_2VC, buf=4096)
        rig.sinks[0].auto_credit = False
        rig.feed(0, 1, size=2048)
        engine.run_all()
        rig.switch.check_backlogged()
        rig.feed(1, 2, size=2560)  # cannot fit the remaining credits
        rig.feed(2, 3, size=64)  # fits; RR masking lets it pass
        engine.run_all()
        rig.switch.check_backlogged()
        assert len(rig.sinks[0].received) == 2
        assert rig.departures()[1] == 3
        assert len(rig.switch.voq(1, 0, 0)) == 1  # masked, still listed

    def test_blocked_vc0_does_not_block_vc1(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC, buf=2048)
        rig.sinks[0].auto_credit = False
        rig.feed(0, 1, size=2048, vc=0)
        engine.run_all()
        rig.switch.check_backlogged()
        rig.feed(1, 2, size=2048, vc=0)  # VC0 now credit-blocked
        rig.feed(2, 3, size=512, vc=1)  # VC1 has its own buffer: may go
        engine.run_all()
        rig.switch.check_backlogged()
        vcs = [p.vc for p, _ in rig.sinks[0].received]
        assert vcs == [0, 1]
        assert len(rig.switch.voq(1, 0, 0)) == 1  # the VC0 stall stays listed


class TestBackloggedLists:
    def test_check_catches_an_unlisted_backlog(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.switch.check_backlogged()
        rig.switch.voq(0, 1, 0).push(mkpkt(5))  # behind accept()'s back
        with pytest.raises(InvariantViolation, match="backlogged lists"):
            rig.switch.check_backlogged()

    def test_check_catches_a_miscounted_link_backlog(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.sinks[0].auto_credit = False
        rig.feed(0, 10, size=8192)
        rig.feed(1, 20, size=64)  # credit-blocked behind the first
        engine.run_all()
        assert rig.out_links[0].backlog == 1
        rig.out_links[0].backlog += 1
        with pytest.raises(InvariantViolation, match="backlogs"):
            rig.switch.check_backlogged()

    def test_a_link_attached_after_arrivals_counts_them(self, engine):
        switch = Switch(engine, "sw", 2, ADVANCED_2VC)
        in_link = Link(
            engine, src="s", src_port=0, dst="sw", dst_port=0,
            bytes_per_ns=1.0, prop_delay_ns=0, buffer_bytes_per_vc=(8192, 8192),
        )
        in_link.sender = NullSender()
        switch.attach_in(0, in_link)
        for deadline in (1, 2):
            in_link.channel.consume(0, 256)  # as the upstream sender would
            switch.accept(mkpkt(deadline, size=256, path=(1,)), in_link)
        out_link = Link(
            engine, src="sw", src_port=1, dst="d", dst_port=0,
            bytes_per_ns=1.0, prop_delay_ns=0, buffer_bytes_per_vc=(8192, 8192),
        )
        out_link.receiver = Sink()
        switch.attach_out(1, out_link)
        assert out_link.backlog == 2
        switch.check_backlogged()
        switch.pull(out_link)
        engine.run_all()
        assert out_link.backlog == 0 and len(out_link.receiver.received) == 2
        switch.check_backlogged()

    @pytest.mark.parametrize("arch", [IDEAL, SIMPLE_2VC, ADVANCED_2VC, TRADITIONAL_2VC])
    def test_lists_track_every_enqueue_and_grant(self, engine, arch):
        rig = SwitchRig(engine, arch)
        for step in range(12):
            rig.feed(step % 4, 100 - step, out_port=step % 2, vc=step % 2)
        while engine.run(max_events=1):
            rig.switch.check_backlogged()
        assert rig.switch.queued_packets() == 0
        assert len(rig.sinks[0].received) + len(rig.sinks[1].received) == 12


class TestVOQsAppearOnFirstArrival:
    def test_fresh_switch_holds_no_queue(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        assert rig.switch.voq_count() == 0
        assert rig.switch.queued_packets() == rig.switch.queued_bytes(0, 0) == 0
        rig.switch.check_backlogged()
        # every slot is one shared placeholder that nothing can be put in
        slots = {id(q) for per_out in rig.switch._candidates for row in per_out for q in row}
        assert len(slots) == 1
        with pytest.raises(TypeError):
            rig.switch._candidates[0][0][0].push(mkpkt(5))

    def test_accept_creates_exactly_the_voq_it_names(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.feed(2, 10, out_port=1, vc=1)
        assert rig.switch.voq_count() == 1
        rig.switch.voq(2, 1, 1)  # the one that exists: asking for it adds none
        assert rig.switch.voq_count() == 1
        rig.feed(2, 20, out_port=1, vc=1)  # and a second arrival reuses it
        assert rig.switch.voq_count() == 1
        rig.switch.voq(1, 2, 1)
        assert rig.switch.voq_count() == 2

    def test_accept_binds_the_clock_of_a_clock_aware_voq(self, engine):
        rig = SwitchRig(engine, IDEAL_PIPELINED)
        engine.at(123, rig.feed, 0, 10)
        engine.run_all()
        assert rig.switch.voq_count() == 1
        assert rig.switch.voq(0, 0, 0).now_fn() == engine.now >= 123
        assert rig.departures() == [10]

    def test_introspection_reads_a_half_empty_table(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.sinks[0].auto_credit = False
        for deadline in (100, 200, 300, 400, 500):  # four fill the credit window
            rig.feed(0, deadline, size=2048)
            engine.run_all()
        rig.feed(0, 50, size=2048)  # lower than the queued 500: takes over
        rig.feed(3, 60, size=512, vc=1)  # VC1 has credits: straight onto the wire
        rig.feed(3, 70, size=512, vc=1)  # ...which is now busy
        assert rig.switch.voq_count() == 2
        assert rig.switch.queued_packets() == 3
        assert rig.switch.queued_bytes(0, 0) == 2 * 2048
        assert rig.switch.queued_bytes(3, 1) == 512
        assert rig.switch.queued_bytes(1, 0) == 0  # a port with no queue at all
        assert rig.switch.takeover_hits() == 1
        rig.switch.check_backlogged()


class TestFlowState:
    def test_switch_keeps_no_per_flow_state(self, engine):
        """Structural check: a switch's attributes contain no flow table."""
        rig = SwitchRig(engine, ADVANCED_2VC)
        assert not hasattr(rig.switch, "flows")
        assert not hasattr(rig.switch, "flow_table")

    def test_hop_advances(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        pkt = rig.feed(0, 10)
        engine.run_all()
        assert pkt.hop == 1

    def test_bad_route_port_raises(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        with pytest.raises(ValueError):
            rig.feed(0, 10, out_port=99)

    def test_exhausted_route_raises_a_value_error_naming_it(self, engine):
        # A packet whose route ran out one switch early used to surface as
        # a bare `IndexError: tuple index out of range`.
        rig = SwitchRig(engine, ADVANCED_2VC)
        pkt = mkpkt(10, path=(2, 0))
        pkt.hop = 2
        with pytest.raises(ValueError, match=r"^sw: source route \(2, 0\) is exhausted at hop 2"):
            rig.switch.accept(pkt, rig.in_links[0])
        assert pkt.hop == 2 and rig.switch.queued_packets() == 0

    def test_forwarding_counters(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        rig.feed(0, 1, size=100)
        rig.feed(1, 2, size=200)
        engine.run_all()
        assert rig.switch.packets_forwarded == 2
        assert rig.switch.bytes_forwarded == 300

    def test_double_attach_rejected(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        second = Link(
            engine, src="other", src_port=0, dst="sw", dst_port=0,
            bytes_per_ns=1.0, prop_delay_ns=0, buffer_bytes_per_vc=(8192, 8192),
        )
        with pytest.raises(ValueError, match="already wired"):
            rig.switch.attach_in(0, second)

    @pytest.mark.parametrize("side", ["in", "out"])
    def test_link_attached_at_a_port_it_does_not_name_rejected(self, engine, side):
        # A link re-polls the arbitration of the port it names, and its
        # arrivals land on the input it names: wired anywhere else, the
        # switch would arbitrate or queue on the wrong port.
        switch = Switch(engine, "sw", 4, ADVANCED_2VC)
        link = Link(
            engine, src="sw" if side == "out" else "up", src_port=2,
            dst="down" if side == "out" else "sw", dst_port=2,
            bytes_per_ns=1.0, prop_delay_ns=0, buffer_bytes_per_vc=(8192, 8192),
        )
        attach = switch.attach_out if side == "out" else switch.attach_in
        with pytest.raises(ValueError, match="port 2 attached at"):
            attach(1, link)
        attach(2, link)

    def test_queued_introspection(self, engine):
        rig = SwitchRig(engine, ADVANCED_2VC)
        # Saturate: sink withholds credits so packets stay queued.
        rig.sinks[0].auto_credit = False
        for i in range(6):
            rig.feed(0, 10 + i, size=2048)
            engine.run_all()  # lets the in-link credit loop breathe
        # 4 fit through the 8 KB output credit window (one at a time), the
        # rest remain in the VOQ.
        assert rig.switch.queued_packets() == 2
        assert rig.switch.queued_bytes(0, 0) == 2 * 2048
