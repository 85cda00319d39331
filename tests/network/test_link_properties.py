"""Property-based tests of the credit flow-control loop.

Hypothesis drives a link with arbitrary interleavings of transmissions
and credit returns and checks the conservation law the lossless fabric
depends on: credits held at the sender plus bytes granted-but-not-yet-
returned always equals the advertised buffer, and no interleaving can
coax the sender into overcommitting the receiver's buffer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import CreditChannel, CreditError, Link
from repro.sim.engine import Engine
from repro.sim.units import serialization_ns
from tests.helpers import mkpkt

BUFFER = 8192


@st.composite
def credit_ops(draw):
    """A feasible operation schedule: sizes to send and when credits for
    them are returned, expressed as an interleaved op list."""
    n = draw(st.integers(1, 30))
    sizes = draw(st.lists(st.integers(1, 4096), min_size=n, max_size=n))
    # For each packet, a 'return' op is inserted somewhere after its send.
    ops: list[tuple[str, int]] = []
    outstanding: list[int] = []
    for size in sizes:
        ops.append(("send", size))
        outstanding.append(size)
        while outstanding and draw(st.booleans()):
            ops.append(("return", outstanding.pop(0)))
    for size in outstanding:
        ops.append(("return", size))
    return ops


class TestCreditChannelProperties:
    @settings(max_examples=300)
    @given(credit_ops())
    def test_conservation_and_no_overcommit(self, ops):
        channel = CreditChannel((BUFFER, BUFFER))
        granted = 0  # bytes sent whose credit has not come back
        for op, size in ops:
            if op == "send":
                if channel.can_send(0, size):
                    channel.consume(0, size)
                    granted += size
                else:
                    # The sender must be blocked exactly when the buffer
                    # cannot hold the packet on top of what is in flight.
                    assert granted + size > BUFFER
                    continue
            else:
                if granted >= size:
                    channel.replenish(0, size)
                    granted -= size
            # Conservation: credits + granted == buffer, always.
            assert channel.credits[0] + granted == BUFFER
            assert 0 <= channel.credits[0] <= BUFFER

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, BUFFER), min_size=1, max_size=20))
    def test_over_return_always_detected(self, sizes):
        channel = CreditChannel((BUFFER, BUFFER))
        returned_without_send = False
        try:
            for size in sizes:
                channel.replenish(0, size)
                returned_without_send = True
        except CreditError:
            return  # detected, as required
        assert not returned_without_send or sum(sizes) == 0


class TestLinkSerialization:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 2048), min_size=1, max_size=12))
    def test_back_to_back_packets_never_overlap(self, sizes):
        """Deliveries are spaced by at least each packet's serialization
        time: the link is a single channel, not a bus."""
        engine = Engine()
        deliveries: list[tuple[int, int]] = []  # (time, size)

        class Sink:
            def accept(self, pkt, link):
                deliveries.append((engine.now, pkt.size))
                link.return_credit(pkt.vc, pkt.size)

        to_send = [mkpkt(i, size=s) for i, s in enumerate(sizes)]

        class Driver:
            def pull(self, link):
                if to_send and link.can_send(to_send[0]):
                    link.transmit(to_send.pop(0))

        link = Link(
            engine,
            src="a",
            src_port=0,
            dst="b",
            dst_port=0,
            bytes_per_ns=1.0,
            prop_delay_ns=7,
            buffer_bytes_per_vc=(BUFFER, BUFFER),
        )
        link.receiver = Sink()
        driver = Driver()
        link.sender = driver
        driver.pull(link)
        engine.run_all()

        assert len(deliveries) == len(sizes)
        for (t_prev, _), (t_next, size_next) in zip(deliveries, deliveries[1:]):
            assert t_next - t_prev >= size_next


def _raised(fn, *args):
    """The CreditError text ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except CreditError as exc:
        return str(exc)
    return None


class TestLinkAppliesTheChannelRules:
    """``Link.transmit`` and ``Link._credit_arrived`` apply
    ``CreditChannel.consume`` / ``replenish`` to ``channel.credits`` in
    place; driven side by side with a bare channel through any sequence of
    sends and returns -- over-sends and double returns included -- both
    hold the same credits after every step and the first ``CreditError``
    comes at the same step with the same text.  Every transmit books
    ``serialization_ns`` of its packet."""

    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(("send", "return")), st.integers(0, 1), st.integers(1, 4096)),
            max_size=40,
        ),
        bytes_per_ns=st.sampled_from((1.0, 0.5, 0.3, 1.25, 3.0)),
    )
    def test_same_credits_and_same_errors_as_a_bare_channel(self, ops, bytes_per_ns):
        capacity = (BUFFER, BUFFER // 2)
        engine = Engine()
        link = Link(
            engine,
            src="a",
            src_port=0,
            dst="b",
            dst_port=0,
            bytes_per_ns=bytes_per_ns,
            prop_delay_ns=3,
            buffer_bytes_per_vc=capacity,
        )

        class Sink:
            def accept(self, pkt, link):
                pass

        link.receiver = Sink()
        channel = CreditChannel(capacity)
        busy_ns = 0

        def send(vc, size):
            link.transmit(mkpkt(0, vc=vc, size=size))
            engine.run_all()  # the wire frees and the packet lands

        def give_back(vc, size):
            link.return_credit(vc, size)
            engine.run_all()

        for op, vc, size in ops:
            if op == "send":
                expected = _raised(channel.consume, vc, size)
                got = _raised(send, vc, size)
                if got is None:
                    busy_ns += serialization_ns(size, bytes_per_ns)
            else:
                expected = _raised(channel.replenish, vc, size)
                got = _raised(give_back, vc, size)
            assert got == expected
            assert link.channel.credits == channel.credits
            assert link.busy_ns == busy_ns
            assert link.occupancy_ns(size) == serialization_ns(size, bytes_per_ns)
            if expected is not None:
                break
