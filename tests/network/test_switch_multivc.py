"""Direct unit tests of the switch with more than two VCs."""

import pytest

from repro.core.architectures import ADVANCED_2VC, TRADITIONAL_2VC
from repro.network.link import Link
from repro.network.switch import Switch
from tests.helpers import mkpkt


class Sink:
    def __init__(self):
        self.received = []

    def accept(self, pkt, link):
        self.received.append(pkt)
        link.return_credit(pkt.vc, pkt.size)


class NullSender:
    def pull(self, link):
        pass


def make_rig(engine, architecture, n_vcs, n_ports=3, buf=8192):
    switch = Switch(engine, "sw", n_ports, architecture, n_vcs=n_vcs)
    in_links, sinks = [], []
    for port in range(n_ports):
        in_link = Link(
            engine, src=f"s{port}", src_port=0, dst="sw", dst_port=port,
            bytes_per_ns=1.0, prop_delay_ns=0,
            buffer_bytes_per_vc=(buf,) * n_vcs,
        )
        in_link.sender = NullSender()
        switch.attach_in(port, in_link)
        in_links.append(in_link)
        sink = Sink()
        out_link = Link(
            engine, src="sw", src_port=port, dst=f"d{port}", dst_port=0,
            bytes_per_ns=1.0, prop_delay_ns=0,
            buffer_bytes_per_vc=(buf,) * n_vcs,
        )
        out_link.receiver = sink
        switch.attach_out(port, out_link)
        sinks.append(sink)
    return switch, in_links, sinks


def feed(switch, in_links, port, deadline, *, vc, out=0, size=256):
    pkt = mkpkt(deadline, vc=vc, size=size, path=(out,))
    in_links[port].channel.consume(vc, size)
    switch.accept(pkt, in_links[port])
    switch.check_backlogged()
    return pkt


class TestFourVCSwitch:
    def test_strict_priority_across_four_vcs(self, engine):
        switch, in_links, sinks = make_rig(engine, TRADITIONAL_2VC, n_vcs=4)
        # Occupy the wire, then queue one packet per VC in reverse priority.
        feed(switch, in_links, 0, 1, vc=3)
        for vc in (3, 2, 1, 0):
            feed(switch, in_links, 1, 10, vc=vc)
        while engine.run(max_events=1):
            switch.check_backlogged()
        vcs_after_first = [p.vc for p in sinks[0].received][1:]
        assert vcs_after_first == [0, 1, 2, 3]

    def test_vcs_have_independent_credit_pools(self, engine):
        switch, in_links, sinks = make_rig(engine, ADVANCED_2VC, n_vcs=3, buf=2048)
        # Exhaust vc1's output credits by withholding its returns.
        held = []

        def hold_vc1(pkt, link):
            sinks[0].received.append(pkt)
            if pkt.vc != 1:
                link.return_credit(pkt.vc, pkt.size)
            else:
                held.append((link, pkt))

        sinks[0].accept = hold_vc1
        feed(switch, in_links, 0, 1, vc=1, size=2048)
        engine.run_all()
        switch.check_backlogged()
        # vc1 is now credit-dry; vc0 and vc2 still flow.
        feed(switch, in_links, 1, 2, vc=1, size=2048)  # stuck
        feed(switch, in_links, 2, 3, vc=0, size=512)
        feed(switch, in_links, 2, 4, vc=2, size=512)
        engine.run_all()
        switch.check_backlogged()
        delivered_vcs = sorted(p.vc for p in sinks[0].received)
        assert delivered_vcs == [0, 1, 2]  # the second vc1 packet is held
        assert len(switch.voq(1, 0, 1)) == 1  # and stays listed for the credit return

    def test_single_vc_switch(self, engine):
        switch, in_links, sinks = make_rig(engine, ADVANCED_2VC, n_vcs=1)
        feed(switch, in_links, 0, 5, vc=0)
        feed(switch, in_links, 1, 3, vc=0)
        engine.run_all()
        assert len(sinks[0].received) == 2

    def test_vc_out_of_range_rejected(self, engine):
        switch, in_links, _ = make_rig(engine, ADVANCED_2VC, n_vcs=2)
        with pytest.raises(IndexError):
            feed(switch, in_links, 0, 5, vc=3)

    def test_invalid_vc_count(self, engine):
        with pytest.raises(ValueError):
            Switch(engine, "sw", 4, ADVANCED_2VC, n_vcs=0)
