"""Unit tests for the event kernel.

The classes below cover the public contract.  ``TestWheelRegimes``
dates from a timing-wheel kernel with a 4 096 ns horizon and an overflow
heap beyond it (its ``hot``-named tests from a still older single-event
fast path); the kernel is one list per pending timestamp now, and the
class stays as ordering regressions across short and long jumps of the
clock.  Byte-for-bit equivalence with the reference heap engine
(``tests/sim/heap_engine.py``) is proven separately in
``test_engine_differential.py``.
"""

import re

import pytest

from repro.sim.engine import Engine, SimulationError
from tests.sim.heap_engine import HeapEngine

#: A delay far beyond every link and switch delay (and beyond the 4 096 ns
#: horizon of the timing wheel these tests were first written against).
FAR = 4096 * 3 + 7


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.at(30, order.append, "c")
        engine.at(10, order.append, "a")
        engine.at(20, order.append, "b")
        engine.run_all()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self, engine):
        order = []
        for tag in ("first", "second", "third"):
            engine.at(5, order.append, tag)
        engine.run_all()
        assert order == ["first", "second", "third"]

    def test_after_is_relative_to_now(self, engine):
        seen = []
        engine.at(100, lambda: engine.after(50, lambda: seen.append(engine.now)))
        engine.run_all()
        assert seen == [150]

    def test_now_is_event_time_during_callback(self, engine):
        times = []
        engine.at(42, lambda: times.append(engine.now))
        engine.run_all()
        assert times == [42]

    def test_scheduling_in_the_past_raises(self, engine):
        engine.at(100, lambda: None)
        engine.run_all()
        with pytest.raises(SimulationError):
            engine.at(50, lambda: None)

    def test_scheduling_in_the_past_raises_with_pending_work(self, engine):
        # Same check on the non-hot path: the engine already holds events.
        engine.at(100, lambda: None)
        engine.at(200, lambda: None)
        engine.run(until=150)
        with pytest.raises(SimulationError):
            engine.at(140, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    def test_negative_delay_raises_with_pending_work(self, engine):
        engine.after(10, lambda: None)
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    @pytest.mark.parametrize("value", [10.5, 100.0, FAR + 0.5, float(FAR), True])
    @pytest.mark.parametrize(
        "method", ["at", "after", "at_cancellable", "after_cancellable"]
    )
    def test_non_integer_time_is_refused_where_it_is_scheduled(
        self, engine, method, value
    ):
        # Time is integer nanoseconds.  A float used to be refused only by
        # accident, and a far one only inside run(), after `now` had
        # already become it; 100.0 would share a bucket with 100.
        engine.at(100, lambda: None)
        engine.run(until=50)
        with pytest.raises(SimulationError, match=re.escape(repr(value))):
            getattr(engine, method)(value, lambda: None)
        assert engine.now == 50 and engine.now.__class__ is int
        assert engine.pending == 1
        assert engine.run_all() == 1
        assert engine.now == 100

    def test_zero_delay_fires_at_current_time(self, engine):
        seen = []
        engine.at(10, lambda: engine.after(0, seen.append, engine.now))
        engine.run_all()
        assert seen == [10]

    def test_callbacks_can_schedule_more_work(self, engine):
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 5:
                engine.after(10, chain)

        engine.at(0, chain)
        engine.run_all()
        assert count[0] == 5
        assert engine.now == 40


class TestRunWindow:
    def test_run_until_is_inclusive(self, engine):
        seen = []
        engine.at(100, seen.append, "boundary")
        engine.run(until=100)
        assert seen == ["boundary"]

    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.at(101, seen.append, "late")
        engine.run(until=100)
        assert seen == []
        assert engine.now == 100  # clock advances to the window edge

    def test_back_to_back_windows_are_contiguous(self, engine):
        seen = []
        engine.at(150, seen.append, "x")
        engine.run(until=100)
        engine.run(until=200)
        assert seen == ["x"]

    def test_run_into_the_past_raises(self, engine):
        engine.run(until=100)
        with pytest.raises(SimulationError):
            engine.run(until=50)

    @pytest.mark.parametrize("until", [1e3, 10.5, True])
    @pytest.mark.parametrize("make_engine", [Engine, HeapEngine], ids=["engine", "heap_engine"])
    def test_non_integer_until_is_refused(self, make_engine, until):
        # A float bound used to become `now` on the way out of run(), and
        # every later `after` inherited it: 1e3 then after(5) fired at 1005.0.
        engine = make_engine()
        seen = []
        engine.after(10, seen.append, "f")
        with pytest.raises(SimulationError, match=re.escape(repr(until))):
            engine.run(until=until)
        assert engine.now == 0 and seen == []
        engine.run(until=1000)
        engine.after(5, lambda: seen.append(engine.now))
        engine.run_all()
        assert seen == ["f", 1005]
        assert seen[1].__class__ is int and engine.now.__class__ is int

    def test_max_events_bounds_execution(self, engine):
        seen = []
        for i in range(10):
            engine.at(i, seen.append, i)
        executed = engine.run(max_events=3)
        assert executed == 3
        assert seen == [0, 1, 2]

    def test_max_events_resumes_mid_timestamp(self, engine):
        # Five same-time events with the limit landing mid-bucket: the
        # next run() must resume with the unconsumed tail, in order.
        seen = []
        for i in range(5):
            engine.at(7, seen.append, i)
        assert engine.run(max_events=2) == 2
        assert seen == [0, 1]
        assert engine.run_all() == 3
        assert seen == [0, 1, 2, 3, 4]

    def test_stop_from_callback(self, engine):
        seen = []
        engine.at(1, seen.append, 1)
        engine.at(2, lambda: (seen.append(2), engine.stop()))
        engine.at(3, seen.append, 3)
        engine.run_all()
        assert seen == [1, 2]

    def test_stop_mid_timestamp_resumes_in_order(self, engine):
        seen = []
        engine.at(2, seen.append, "a")
        engine.at(2, lambda: (seen.append("stop"), engine.stop()))
        engine.at(2, seen.append, "b")
        engine.run_all()
        assert seen == ["a", "stop"]
        engine.run_all()
        assert seen == ["a", "stop", "b"]

    def test_run_returns_executed_count(self, engine):
        for i in range(4):
            engine.at(i, lambda: None)
        assert engine.run_all() == 4
        assert engine.events_executed == 4

    def test_reentrant_run_raises(self, engine):
        def nested():
            engine.run(until=10)

        engine.at(1, nested)
        with pytest.raises(SimulationError):
            engine.run_all()


class TestCancellation:
    def test_plain_schedule_returns_no_handle(self, engine):
        # at/after are the allocation-free fast path: no handle.
        assert engine.at(10, lambda: None) is None
        assert engine.after(10, lambda: None) is None

    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        handle = engine.at_cancellable(10, seen.append, "no")
        handle.cancel()
        engine.run_all()
        assert seen == []

    def test_cancel_is_idempotent(self, engine):
        handle = engine.at_cancellable(10, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run_all()

    def test_cancel_one_of_many(self, engine):
        seen = []
        engine.at_cancellable(10, seen.append, "keep")
        drop = engine.at_cancellable(10, seen.append, "drop")
        drop.cancel()
        engine.run_all()
        assert seen == ["keep"]

    def test_cancellable_after_is_relative(self, engine):
        seen = []
        engine.at(100, lambda: engine.after_cancellable(50, seen.append, "x"))
        engine.run_all()
        assert seen == ["x"]
        assert engine.now == 150

    def test_cancel_far_future_event(self, engine):
        seen = []
        handle = engine.at_cancellable(FAR, seen.append, "no")
        engine.at(1, seen.append, "yes")
        handle.cancel()
        engine.run_all()
        assert seen == ["yes"]
        assert engine.tombstones_discarded >= 1

    def test_cancelled_handles_are_pooled(self, engine):
        """Handles are *not* pooled (the name predates the pool's removal).

        The opposite contract now holds: re-arming after ``cancel()``
        returns a distinct live handle and the cancelled one stays
        ``cancelled``, so a stale reference can never cancel someone
        else's event.
        """
        seen = []
        first = engine.at_cancellable(10, seen.append, "first")
        first.cancel()
        second = engine.at_cancellable(20, seen.append, "second")
        assert second is not first
        assert first.cancelled and first.time == 10
        assert not second.cancelled and second.time == 20
        first.cancel()  # stale reference: must not touch the re-armed event
        engine.run_all()
        assert seen == ["second"]

    def test_peek_time_skips_cancelled(self, engine):
        first = engine.at_cancellable(5, lambda: None)
        engine.at(10, lambda: None)
        first.cancel()
        assert engine.peek_time() == 10

    def test_peek_time_empty_engine(self, engine):
        assert engine.peek_time() is None

    def test_peek_time_sees_hot_slot(self, engine):
        engine.after(37, lambda: None)
        assert engine.peek_time() == 37

    def test_peek_time_skips_cancelled_overflow(self, engine):
        handle = engine.at_cancellable(FAR, lambda: None)
        engine.at(FAR + 10, lambda: None)
        handle.cancel()
        assert engine.peek_time() == FAR + 10

    def test_tombstone_counters(self, engine):
        handle = engine.at_cancellable(5, lambda: None)
        engine.at(5, lambda: None)
        handle.cancel()
        engine.run_all()
        assert engine.tombstones_discarded == 1
        assert engine.events_executed == 1
        assert engine.tombstone_ratio == 0.5


class TestWheelRegimes:
    """Order and bookkeeping across near (ns) and far (``FAR``) delays."""

    def test_far_future_events_cross_the_horizon(self, engine):
        order = []
        engine.at(FAR, order.append, "far")
        engine.at(3, order.append, "near")
        engine.run_all()
        assert order == ["near", "far"]
        assert engine.now == FAR

    def test_same_time_order_across_overflow_and_wheel(self, engine):
        # Scheduled-first-fires-first must hold even when the earlier
        # event takes the overflow route and the later one is appended
        # directly to the bucket after the clock has advanced.
        order = []
        t = FAR

        def near_rider():
            engine.at(t, order.append, "direct")

        engine.at(t, order.append, "overflow")  # beyond horizon now
        engine.at(t - 5, near_rider)  # schedules "direct" once t is in-window
        engine.run_all()
        assert order == ["overflow", "direct"]

    def test_overflow_entries_keep_schedule_order(self, engine):
        order = []
        for tag in ("a", "b", "c"):
            engine.at(FAR, order.append, tag)
        engine.run_all()
        assert order == ["a", "b", "c"]

    def test_run_until_parks_across_the_horizon(self, engine):
        # Repeated run(until=...) windows each advance the clock; events
        # far beyond every window must still fire exactly on time.
        seen = []
        engine.at(FAR, lambda: seen.append(engine.now))
        for i in range(1, 10):
            engine.run(until=i * 1000)
        engine.run_all()
        assert seen == [FAR]

    def test_hot_slot_spills_in_order(self, engine):
        # First event parks hot; the second (earlier!) forces a spill.
        order = []
        engine.at(50, order.append, "second")
        engine.at(10, order.append, "first")
        engine.run_all()
        assert order == ["first", "second"]

    def test_hot_slot_same_time_spill_keeps_schedule_order(self, engine):
        order = []
        engine.at(5, order.append, "first")
        engine.at(5, order.append, "second")
        engine.run_all()
        assert order == ["first", "second"]

    def test_hot_event_scheduled_mid_bucket_fires_after_bucket(self, engine):
        # A zero-delay event scheduled from inside a bucket must fire
        # after the bucket-mates that were scheduled before it.
        order = []

        def rider():
            order.append("rider")
            engine.after(0, order.append, "hot")

        engine.at(4, rider)
        engine.at(4, order.append, "mate")
        engine.run_all()
        assert order == ["rider", "mate", "hot"]

    def test_limit_break_then_hot_respects_pushed_back_bucket(self, engine):
        # Regression for the one hot/wheel coexistence case: a bucket
        # pushed back by max_events plus a hot event armed mid-bucket.
        order = []

        def first():
            order.append("first")
            engine.after(0, order.append, "hot")

        engine.at(2, first)
        engine.at(2, order.append, "second")
        engine.run(max_events=1)
        engine.run_all()
        assert order == ["first", "second", "hot"]

    def test_pending_counts_all_regimes(self, engine):
        engine.after(1, lambda: None)  # hot
        assert engine.pending == 1
        engine.after(2, lambda: None)  # forces spill -> wheel x2
        assert engine.pending == 2
        engine.after(FAR, lambda: None)  # overflow
        assert engine.pending == 3
        engine.run_all()
        assert engine.pending == 0

    def test_wheel_stats_shape(self, engine):
        # The counters wheel_stats() used to bundle, read where they live.
        handle = engine.after_cancellable(1, lambda: None)
        engine.after(1, lambda: None)
        engine.after(FAR, lambda: None)
        handle.cancel()
        assert (engine.pending, engine.events_executed, engine.tombstones_discarded) == (3, 0, 0)
        engine.run_all()
        assert (engine.pending, engine.events_executed, engine.tombstones_discarded) == (0, 2, 1)
        assert not hasattr(engine, "wheel_stats")

    def test_small_wheel_still_correct(self):
        # Delays straddling 4 096 ns from clocks on either side of a
        # multiple of it: nothing depends on where `now` sits.
        delays = (17, 3, 4096, 9, 3, 64, 2, 4097, 33, 4095, 3 * 4096)
        for start_time in (0, 4095, 4096 * 5 + 1):
            engine = Engine(start_time=start_time)
            order = []
            for delay in delays:
                engine.after(delay, order.append, delay)
            engine.run_all()
            assert order == sorted(delays)
            assert engine.now == start_time + 3 * 4096

    def test_wheel_slots_must_be_power_of_two(self):
        # The option is gone, not ignored.
        with pytest.raises(TypeError):
            Engine(wheel_slots=4)


class TestConstruction:
    def test_start_time(self):
        engine = Engine(start_time=500)
        assert engine.now == 500

    def test_negative_start_time_raises(self):
        with pytest.raises(SimulationError):
            Engine(start_time=-1)
