"""Tests for the Section 3.1 deadline stampers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import (
    ControlStamper,
    DeadlineStamper,
    FrameBasedStamper,
    RateBasedStamper,
)


class TestRateBased:
    def test_formula_from_idle(self):
        # D = max(D_prev, now) + L/BW with an idle flow anchors at now.
        stamper = RateBasedStamper(0.5)  # 0.5 B/ns
        assert stamper.stamp(now=1000, size=100) == 1000 + 200

    def test_backlogged_flow_chains_deadlines(self):
        stamper = RateBasedStamper(1.0)
        d1 = stamper.stamp(now=0, size=100)
        d2 = stamper.stamp(now=0, size=100)
        assert (d1, d2) == (100, 200)

    def test_idle_gap_reanchors_to_now(self):
        stamper = RateBasedStamper(1.0)
        stamper.stamp(now=0, size=100)  # deadline 100
        assert stamper.stamp(now=5000, size=100) == 5100

    def test_deadlines_strictly_increase(self):
        stamper = RateBasedStamper(1.0)
        previous = 0
        for now in (0, 0, 50, 50, 400):
            deadline = stamper.stamp(now=now, size=10)
            assert deadline > previous
            previous = deadline

    def test_subnanosecond_increment_rounds_up_to_one(self):
        # Eq. 1 needs strict increase even for tiny packets on fast links.
        stamper = RateBasedStamper(1000.0)
        d1 = stamper.stamp(now=0, size=1)
        d2 = stamper.stamp(now=0, size=1)
        assert d2 == d1 + 1

    def test_fractional_bandwidth_rounds_up(self):
        stamper = RateBasedStamper(0.3)
        assert stamper.stamp(now=0, size=100) == 334  # ceil(100/0.3)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            RateBasedStamper(0.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RateBasedStamper(1.0).stamp(now=0, size=0)


class TestControl:
    def test_control_is_rate_based_at_link_speed(self):
        stamper = ControlStamper(1.0)
        # deadline == now + bare serialization: the earliest possible.
        assert stamper.stamp(now=500, size=256) == 756

    def test_control_has_earlier_deadline_than_any_reserved_flow(self):
        control = ControlStamper(1.0)
        video = RateBasedStamper(0.01)
        assert control.stamp(now=0, size=1024) < video.stamp(now=0, size=1024)


class TestFrameBased:
    def test_frame_spread_evenly(self):
        stamper = FrameBasedStamper(10_000)
        deadlines = stamper.stamp_frame(now=0, parts=4)
        assert deadlines == [2500, 5000, 7500, 10000]

    def test_last_packet_deadline_is_target_independent_of_size(self):
        # An 80 KB frame (40 parts) and a 2 KB frame (1 part) both complete
        # one target-latency after arrival -- the paper's key property.
        stamper_big = FrameBasedStamper(10_000_000)
        stamper_small = FrameBasedStamper(10_000_000)
        big = stamper_big.stamp_frame(now=0, parts=40)
        small = stamper_small.stamp_frame(now=0, parts=1)
        assert big[-1] == small[-1] == 10_000_000

    def test_consecutive_frames_chain(self):
        stamper = FrameBasedStamper(1000)
        first = stamper.stamp_frame(now=0, parts=2)
        second = stamper.stamp_frame(now=0, parts=2)  # back-to-back frames
        assert first == [500, 1000]
        assert second == [1500, 2000]

    def test_idle_stream_reanchors(self):
        stamper = FrameBasedStamper(1000)
        stamper.stamp_frame(now=0, parts=1)
        assert stamper.stamp_frame(now=50_000, parts=1) == [51_000]

    def test_single_packet_stamp(self):
        stamper = FrameBasedStamper(1000)
        assert stamper.stamp(now=0, size=999) == 1000

    def test_strictly_increasing_within_frame(self):
        stamper = FrameBasedStamper(10)
        deadlines = stamper.stamp_frame(now=0, parts=50)  # increment rounds to 0
        assert all(b > a for a, b in zip(deadlines, deadlines[1:]))

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            FrameBasedStamper(1000).stamp_frame(now=0, parts=0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            FrameBasedStamper(0)


# A host stamps a message with one stamp_message call.  Each stamper's is
# the per-packet rule written out; these replay random message sequences
# through it and through the rule it replaces, on twin stampers.
_messages = st.lists(
    st.tuples(
        st.integers(0, 3_000),  # clock advance before the message
        st.lists(st.integers(1, 2048), min_size=1, max_size=6),  # packet sizes
    ),
    max_size=12,
)


class TestStampMessage:
    @settings(max_examples=200, deadline=None)
    @given(
        messages=_messages,
        bw=st.sampled_from([0.001, 0.3, 1.0, 7.0, 1000.0]),
        control=st.booleans(),
        start=st.integers(-5_000, 5_000),
    )
    def test_rate_message_is_one_stamp_per_packet(self, messages, bw, control, start):
        make = ControlStamper if control else RateBasedStamper
        fast, oracle = make(bw), make(bw)
        now = start
        for advance, sizes in messages:
            now += advance
            assert fast.stamp_message(now, sizes) == [oracle.stamp(now, s) for s in sizes]
            assert fast.last_deadline == oracle.last_deadline

    @settings(max_examples=200, deadline=None)
    @given(
        messages=_messages,
        target=st.integers(1, 50_000),
        start=st.integers(-5_000, 5_000),
    )
    def test_frame_message_is_the_frame_rule(self, messages, target, start):
        fast, oracle = FrameBasedStamper(target), FrameBasedStamper(target)
        now = start
        for advance, sizes in messages:
            now += advance
            # The replaced stamp_frame: one _advance per part.
            expected = [oracle._advance(now, target // len(sizes)) for _ in sizes]
            assert fast.stamp_message(now, sizes) == expected
            assert fast.last_deadline == oracle.last_deadline

    def test_base_class_stamps_packet_by_packet(self):
        class Fixed(DeadlineStamper):
            def stamp(self, now, size):
                return self._advance(now, size)

        assert Fixed().stamp_message(10, [5, 7]) == [15, 22]

    def test_empty_or_bad_message(self):
        stamper = RateBasedStamper(1.0)
        assert stamper.stamp_message(100, []) == []
        assert stamper.last_deadline == DeadlineStamper.UNSET
        with pytest.raises(ValueError, match="size must be positive"):
            stamper.stamp_message(0, [64, 0])
