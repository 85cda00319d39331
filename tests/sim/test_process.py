"""Tests for the coroutine process layer."""

import pytest

from repro.sim.engine import SimulationError
from tests.traffic.scripted_oracle import Delay, Process, Signal, process


class TestDelay:
    def test_sequential_delays(self, engine):
        log = []

        def worker():
            log.append(engine.now)
            yield Delay(100)
            log.append(engine.now)
            yield Delay(50)
            log.append(engine.now)

        process(engine, worker())
        engine.run_all()
        assert log == [0, 100, 150]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-5)

    def test_process_return_value(self, engine):
        def worker():
            yield Delay(10)
            return "done"

        proc = process(engine, worker())
        engine.run_all()
        assert proc.alive is False
        assert proc.value == "done"


class TestSignal:
    def test_trigger_wakes_waiter_with_value(self, engine):
        received = []

        def consumer(sig):
            value = yield sig
            received.append((engine.now, value))

        def producer(sig):
            yield Delay(75)
            sig.trigger("payload")

        sig = Signal()
        process(engine, consumer(sig))
        process(engine, producer(sig))
        engine.run_all()
        assert received == [(75, "payload")]

    def test_trigger_wakes_all_current_waiters(self, engine):
        woken = []

        def waiter(name, sig):
            yield sig
            woken.append(name)

        sig = Signal()
        process(engine, waiter("a", sig))
        process(engine, waiter("b", sig))
        engine.at(10, sig.trigger)
        engine.run_all()
        assert sorted(woken) == ["a", "b"]

    def test_no_latching(self, engine):
        """A waiter registered after a trigger waits for the next one."""
        woken = []

        def late_waiter(sig):
            yield Delay(20)  # trigger happens at t=10, we start waiting at 20
            yield sig
            woken.append(engine.now)

        sig = Signal()
        process(engine, late_waiter(sig))
        engine.at(10, sig.trigger)
        engine.at(30, sig.trigger)
        engine.run_all()
        assert woken == [30]

    def test_trigger_reports_woken_count(self, engine):
        sig = Signal()

        def waiter(sig):
            yield sig

        process(engine, waiter(sig))
        engine.run(until=1)
        assert sig.trigger() == 1
        assert sig.trigger() == 0


class TestProcessComposition:
    def test_wait_on_another_process(self, engine):
        log = []

        def child():
            yield Delay(100)
            return 42

        def parent():
            result = yield process(engine, child())
            log.append((engine.now, result))

        process(engine, parent())
        engine.run_all()
        assert log == [(100, 42)]

    def test_kill_stops_process(self, engine):
        log = []

        def worker():
            while True:
                yield Delay(10)
                log.append(engine.now)

        proc = process(engine, worker())
        engine.run(until=35)
        proc.kill()
        engine.run(until=100)
        assert log == [10, 20, 30]
        assert proc.alive is False

    def test_bad_yield_raises(self, engine):
        def worker():
            yield "not a delay"

        process(engine, worker())
        with pytest.raises(SimulationError):
            engine.run_all()
