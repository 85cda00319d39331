"""Tests for the Section 3.1 deadline stampers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import DeadlineStamper, FrameBasedStamper, RateBasedStamper
from repro.network.fabric import FabricParams

MTU = 2048


def stamp_packet(last_deadline: int, now: int, increment: int) -> int:
    """Eq. 1's per-packet rule, the oracle ``stamp_message`` is checked
    against: ``D = max(D_prev, now) + increment``, an increment that
    rounds to zero bumped to 1 ns so deadlines strictly increase."""
    base = last_deadline if last_deadline > now else now
    return base + (increment if increment > 0 else 1)


def stamp_one(stamper, now, size):
    """The deadline of a one-packet message."""
    (deadline,) = stamper.stamp_message(now, [size])
    return deadline


def stamp_frame(stamper, now, parts):
    """The deadlines of a ``parts``-packet frame."""
    return stamper.stamp_message(now, [MTU] * parts)


class TestRateBased:
    def test_formula_from_idle(self):
        # D = max(D_prev, now) + L/BW with an idle flow anchors at now.
        stamper = RateBasedStamper(0.5)  # 0.5 B/ns
        assert stamp_one(stamper, 1000, 100) == 1000 + 200

    def test_backlogged_flow_chains_deadlines(self):
        stamper = RateBasedStamper(1.0)
        d1 = stamp_one(stamper, 0, 100)
        d2 = stamp_one(stamper, 0, 100)
        assert (d1, d2) == (100, 200)

    def test_idle_gap_reanchors_to_now(self):
        stamper = RateBasedStamper(1.0)
        stamp_one(stamper, 0, 100)  # deadline 100
        assert stamp_one(stamper, 5000, 100) == 5100

    def test_deadlines_strictly_increase(self):
        stamper = RateBasedStamper(1.0)
        previous = 0
        for now in (0, 0, 50, 50, 400):
            deadline = stamp_one(stamper, now, 10)
            assert deadline > previous
            previous = deadline

    def test_subnanosecond_increment_rounds_up_to_one(self):
        # Eq. 1 needs strict increase even for tiny packets on fast links.
        stamper = RateBasedStamper(1000.0)
        d1 = stamp_one(stamper, 0, 1)
        d2 = stamp_one(stamper, 0, 1)
        assert d2 == d1 + 1

    def test_fractional_bandwidth_rounds_up(self):
        stamper = RateBasedStamper(0.3)
        assert stamp_one(stamper, 0, 100) == 334  # ceil(100/0.3)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            RateBasedStamper(0.0)

    def test_nan_bandwidth_rejected_at_construction(self):
        # nan <= 0 is false: it used to be accepted and fail at the first stamp.
        with pytest.raises(ValueError, match="got nan"):
            RateBasedStamper(float("nan"))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            stamp_one(RateBasedStamper(1.0), 0, 0)


class TestControl:
    # Control is the rate-based rule with BW_avg = the link rate (8 Gb/s
    # is 1 byte/ns): no stamper of its own.
    LINK_RATE = FabricParams().bytes_per_ns

    def test_control_is_rate_based_at_link_speed(self):
        stamper = RateBasedStamper(self.LINK_RATE)
        # deadline == now + bare serialization: the earliest possible.
        assert stamp_one(stamper, 500, 256) == 756

    def test_control_has_earlier_deadline_than_any_reserved_flow(self):
        control = RateBasedStamper(self.LINK_RATE)
        video = RateBasedStamper(0.01)
        assert stamp_one(control, 0, 1024) < stamp_one(video, 0, 1024)


class TestFrameBased:
    def test_frame_spread_evenly(self):
        stamper = FrameBasedStamper(10_000)
        deadlines = stamp_frame(stamper, 0, 4)
        assert deadlines == [2500, 5000, 7500, 10000]

    def test_last_packet_deadline_is_target_independent_of_size(self):
        # An 80 KB frame (40 parts) and a 2 KB frame (1 part) both complete
        # one target-latency after arrival -- the paper's key property.
        stamper_big = FrameBasedStamper(10_000_000)
        stamper_small = FrameBasedStamper(10_000_000)
        big = stamp_frame(stamper_big, 0, 40)
        small = stamp_frame(stamper_small, 0, 1)
        assert big[-1] == small[-1] == 10_000_000

    def test_consecutive_frames_chain(self):
        stamper = FrameBasedStamper(1000)
        first = stamp_frame(stamper, 0, 2)
        second = stamp_frame(stamper, 0, 2)  # back-to-back frames
        assert first == [500, 1000]
        assert second == [1500, 2000]

    def test_idle_stream_reanchors(self):
        stamper = FrameBasedStamper(1000)
        stamp_frame(stamper, 0, 1)
        assert stamp_frame(stamper, 50_000, 1) == [51_000]

    def test_single_packet_stamp(self):
        stamper = FrameBasedStamper(1000)
        assert stamp_one(stamper, 0, 999) == 1000

    def test_strictly_increasing_within_frame(self):
        stamper = FrameBasedStamper(10)
        deadlines = stamp_frame(stamper, 0, 50)  # increment rounds to 0
        assert all(b > a for a, b in zip(deadlines, deadlines[1:]))

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            stamp_frame(FrameBasedStamper(1000), 0, 0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            FrameBasedStamper(0)

    @pytest.mark.parametrize("target", [1000.0, 1000.5, True])
    def test_non_int_target_rejected_at_construction(self, target):
        # A float used to fail at the first frame; True was a 1 ns target.
        with pytest.raises(ValueError, match=repr(target)):
            FrameBasedStamper(target)


# A host stamps a message with one stamp_message call, the only definition
# of each formula; these replay random message sequences through it and
# through Eq. 1's per-packet rule (stamp_packet), one packet at a time.
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
        start=st.integers(-5_000, 5_000),
    )
    def test_rate_message_is_one_stamp_per_packet(self, messages, bw, start):
        # bw = 1.0 is the link rate, i.e. the control rule.
        stamper = RateBasedStamper(bw)
        last = DeadlineStamper.UNSET
        now = start
        for advance, sizes in messages:
            now += advance
            expected = []
            for size in sizes:
                last = stamp_packet(last, now, math.ceil(size / bw))
                expected.append(last)
            assert stamper.stamp_message(now, sizes) == expected
            assert stamper.last_deadline == last

    @settings(max_examples=200, deadline=None)
    @given(
        messages=_messages,
        target=st.integers(1, 50_000),
        start=st.integers(-5_000, 5_000),
    )
    def test_frame_message_is_the_frame_rule(self, messages, target, start):
        stamper = FrameBasedStamper(target)
        last = DeadlineStamper.UNSET
        now = start
        for advance, sizes in messages:
            now += advance
            # A message is one frame: each of its parts advances target // parts.
            expected = []
            for _ in sizes:
                last = stamp_packet(last, now, target // len(sizes))
                expected.append(last)
            assert stamper.stamp_message(now, sizes) == expected
            assert stamper.last_deadline == last

    def test_base_class_stamps_packet_by_packet(self):
        # The base class keeps only the virtual clock; a rate-based message
        # is its packets stamped one by one on that clock.
        assert DeadlineStamper().last_deadline == DeadlineStamper.UNSET
        with pytest.raises(NotImplementedError):
            DeadlineStamper().stamp_message(10, [5])
        whole, split = RateBasedStamper(1.0), RateBasedStamper(1.0)
        assert whole.stamp_message(10, [5, 7]) == [15, 22]
        assert [stamp_one(split, 10, 5), stamp_one(split, 10, 7)] == [15, 22]

    def test_empty_or_bad_message(self):
        stamper = RateBasedStamper(1.0)
        assert stamper.stamp_message(100, []) == []
        assert stamper.last_deadline == DeadlineStamper.UNSET
        with pytest.raises(ValueError, match="size must be positive"):
            stamper.stamp_message(0, [64, 0])
