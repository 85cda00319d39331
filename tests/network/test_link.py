"""Tests for links and credit-based flow control."""

import pytest

from repro.network.link import CreditChannel, CreditError, Link
from tests.helpers import mkpkt


class Sink:
    """Records deliveries; optionally returns credits immediately."""

    def __init__(self, auto_credit=False):
        self.received = []
        self.auto_credit = auto_credit

    def accept(self, pkt, link):
        self.received.append((pkt, link.engine.now))
        if self.auto_credit:
            link.return_credit(pkt.vc, pkt.size)


class Puller:
    """A sender holding one packet for the link (``link.backlog``), so
    the link re-polls it; it never sends, it counts the polls."""

    def __init__(self, link):
        self.pulls = 0
        link.backlog = 1

    def pull(self, link):
        self.pulls += 1


def make_link(engine, *, bw=1.0, prop=20, buf=(8192, 8192)):
    return Link(
        engine,
        src="a",
        src_port=0,
        dst="b",
        dst_port=1,
        bytes_per_ns=bw,
        prop_delay_ns=prop,
        buffer_bytes_per_vc=buf,
    )


class TestCreditChannel:
    def test_initial_credits_equal_buffer(self):
        ch = CreditChannel((8192, 4096))
        assert ch.credits == [8192, 4096]

    def test_consume_and_replenish(self):
        ch = CreditChannel((1000, 1000))
        ch.consume(0, 600)
        assert ch.can_send(0, 400)
        assert not ch.can_send(0, 401)
        ch.replenish(0, 600)
        assert ch.credits[0] == 1000

    def test_consume_without_credit_raises(self):
        ch = CreditChannel((100, 100))
        with pytest.raises(CreditError):
            ch.consume(0, 101)

    def test_over_replenish_raises(self):
        ch = CreditChannel((100, 100))
        with pytest.raises(CreditError):
            ch.replenish(0, 1)

    def test_vcs_are_independent(self):
        ch = CreditChannel((100, 100))
        ch.consume(0, 100)
        assert ch.can_send(1, 100)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            CreditChannel(())
        with pytest.raises(ValueError):
            CreditChannel((100, 0))

    def test_multi_vc_channels(self):
        ch = CreditChannel((100, 200, 300, 400))
        ch.consume(3, 400)
        assert ch.can_send(2, 300)
        assert not ch.can_send(3, 1)


class TestTransmission:
    def test_delivery_after_serialization_plus_propagation(self, engine):
        link = make_link(engine, bw=1.0, prop=20)
        sink = Sink()
        link.receiver = sink
        pkt = mkpkt(1, size=2048)
        link.transmit(pkt)
        engine.run_all()
        assert sink.received[0][1] == 2048 + 20

    def test_busy_during_serialization(self, engine):
        link = make_link(engine)
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=1000))
        assert link.busy
        engine.run(until=999)
        assert link.busy
        engine.run(until=1000)
        assert not link.busy

    def test_transmit_while_busy_raises(self, engine):
        link = make_link(engine)
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=1000))
        with pytest.raises(CreditError):
            link.transmit(mkpkt(2, size=100))

    def test_transmit_consumes_credits(self, engine):
        link = make_link(engine, buf=(4096, 4096))
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=1500))
        assert link.channel.credits[0] == 4096 - 1500

    def test_sender_pulled_when_link_frees(self, engine):
        link = make_link(engine)
        link.receiver = Sink()
        puller = Puller(link)
        link.sender = puller
        link.transmit(mkpkt(1, size=100))
        engine.run_all()
        assert puller.pulls == 1

    def test_sender_with_no_backlog_is_not_pulled(self, engine):
        link = make_link(engine)
        link.receiver = Sink(auto_credit=True)
        puller = Puller(link)
        link.backlog = 0
        link.sender = puller
        link.transmit(mkpkt(1, size=100))
        engine.run_all()
        assert puller.pulls == 0

    def test_counters(self, engine):
        link = make_link(engine)
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=100))
        engine.run_all()
        link.transmit(mkpkt(2, size=200))
        engine.run_all()
        assert link.packets_carried == 2
        assert link.bytes_carried == 300

    def test_half_rate_link(self, engine):
        link = make_link(engine, bw=0.5, prop=0)
        sink = Sink()
        link.receiver = sink
        link.transmit(mkpkt(1, size=100))
        engine.run_all()
        assert sink.received[0][1] == 200


class TestCreditReturn:
    def test_credit_arrives_after_propagation(self, engine):
        link = make_link(engine, prop=50, buf=(1000, 1000))
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=1000))
        engine.run_all()
        assert link.channel.credits[0] == 0
        link.return_credit(0, 1000)
        engine.run(until=engine.now + 49)
        assert link.channel.credits[0] == 0
        engine.run(until=engine.now + 1)
        assert link.channel.credits[0] == 1000

    def test_sender_pulled_on_credit_arrival(self, engine):
        link = make_link(engine, prop=10)
        link.receiver = Sink()
        link.transmit(mkpkt(1, size=64))
        engine.run_all()
        puller = Puller(link)
        link.sender = puller
        link.return_credit(0, 64)
        engine.run_all()
        assert puller.pulls == 1

    def test_stop_and_wait_throughput_with_auto_credit(self, engine):
        """With an auto-crediting sink, a saturating sender achieves full
        link utilization: N back-to-back MTUs take N serializations."""
        link = make_link(engine, prop=10, buf=(8192, 8192))
        sink = Sink(auto_credit=True)
        link.receiver = sink

        to_send = [mkpkt(i, size=2048) for i in range(8)]

        class Driver:
            def pull(self, l):
                if to_send and l.can_send(to_send[0]):
                    l.backlog -= 1
                    l.transmit(to_send.pop(0))

        driver = Driver()
        link.sender = driver
        link.backlog = len(to_send)
        driver.pull(link)
        engine.run_all()
        assert len(sink.received) == 8
        # 4-packet buffer, credits return promptly: the wire never idles.
        last = sink.received[-1][1]
        assert last == 8 * 2048 + 10  # pure pipelining + final propagation


class TestValidation:
    def test_negative_propagation_rejected(self, engine):
        with pytest.raises(ValueError):
            make_link(engine, prop=-1)

    @pytest.mark.parametrize("bw", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_bandwidth_rejected_at_construction(self, engine, bw):
        # Used to be accepted here and to fail at the first transmit, from
        # inside engine.run.
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            make_link(engine, bw=bw)

    def test_link_id(self, engine):
        assert make_link(engine).link_id == ("a", 0)
