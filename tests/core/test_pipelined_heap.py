"""Tests for the pipelined-heap buffer (the paper's reference [9]) and the
``ideal-pipelined`` preset it runs as: the differential oracle of ``ideal``
(``tests/core/pipelined_heap.py``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.arbiter import EDFPicker
from repro.core.architectures import ARCHITECTURES
from repro.core.queues import EDFHeapQueue
from repro.exec.summary import summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.replication import MetricSummary
from repro.experiments.runner import run_experiment
from repro.network.switch import Switch
from repro.sim import units
from tests.core.pipelined_heap import (
    NAME,
    EngineClock,
    PipelinedHeapQueue,
    engine_factory_for,
    ideal_pipelined,
)
from tests.helpers import mkpkt


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestLogicalBehaviour:
    """With settle_cycles=0 the structure is exactly the abstract heap."""

    def test_exact_edf_order(self):
        queue = PipelinedHeapQueue(settle_cycles=0)
        for d in (50, 10, 30, 20, 40):
            queue.push(mkpkt(d))
        assert [queue.pop().deadline for _ in range(5)] == [10, 20, 30, 40, 50]

    @given(st.lists(st.integers(0, 1000), max_size=40))
    def test_matches_abstract_heap(self, deadlines):
        pipelined = PipelinedHeapQueue(settle_cycles=0)
        abstract = EDFHeapQueue()
        for d in deadlines:
            pkt = mkpkt(d)
            pipelined.push(pkt)
            abstract.push(pkt)
        out_p = [pipelined.pop().uid for _ in range(len(deadlines))]
        out_a = [abstract.pop().uid for _ in range(len(deadlines))]
        assert out_p == out_a

    def test_byte_accounting(self):
        queue = PipelinedHeapQueue(settle_cycles=0)
        queue.push(mkpkt(1, size=300))
        assert sum(p.size for p in queue) == 300
        queue.pop()
        assert sum(p.size for p in queue) == 0


class TestPipelineTiming:
    def test_fresh_insert_invisible_until_settled(self):
        clock = FakeClock()
        queue = PipelinedHeapQueue(now_fn=clock, depth=8)
        queue.push(mkpkt(500))
        clock.now = 10  # settled (>= 8 cycles)
        assert queue.front.deadline == 500
        # A better packet arrives but has not settled: the old head wins.
        better = mkpkt(10)
        queue.push(better)
        assert queue.front.deadline == 500
        clock.now = 18  # insert from t=10 settles at t=18
        assert queue.front is better

    def test_unsettled_counter(self):
        clock = FakeClock()
        queue = PipelinedHeapQueue(now_fn=clock, depth=4)
        queue.push(mkpkt(1))
        queue.push(mkpkt(2))
        assert queue.unsettled == 2
        clock.now = 4
        assert queue.unsettled == 0

    def test_empty_heap_bypass(self):
        """An empty heap exposes the in-flight insert immediately (the
        root register is free), so the port never idles artificially."""
        clock = FakeClock()
        queue = PipelinedHeapQueue(now_fn=clock, depth=8)
        pkt = mkpkt(42)
        queue.push(pkt)
        assert queue.front is pkt  # despite not being settled
        assert queue.pop() is pkt

    def test_len_includes_staging(self):
        clock = FakeClock()
        queue = PipelinedHeapQueue(now_fn=clock, depth=8)
        queue.push(mkpkt(1))
        queue.push(mkpkt(2))
        assert len(queue) == 2
        assert sorted(p.deadline for p in queue) == [1, 2]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PipelinedHeapQueue().pop()


class TestHardwareModel:
    def test_levels_for_capacity(self):
        assert PipelinedHeapQueue.levels_for(1) == 1
        assert PipelinedHeapQueue.levels_for(7) == 3
        assert PipelinedHeapQueue.levels_for(128) == 8

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            PipelinedHeapQueue.levels_for(0)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            PipelinedHeapQueue(depth=0)


class TestArchitecturePreset:
    def test_registered(self, monkeypatch):
        """The shipped table holds the paper's four; a test registers the
        oracle under its old name, bound to the clock it hands back."""
        assert NAME not in ARCHITECTURES
        clock = engine_factory_for(monkeypatch, NAME)
        preset = ARCHITECTURES[NAME]
        assert isinstance(clock, EngineClock) and preset.name == NAME
        queue = preset.queue_factory()
        assert isinstance(queue, PipelinedHeapQueue)
        assert queue.depth == 8 and queue.now_fn == clock.now
        assert type(preset.picker_factory()) is EDFPicker and preset.host_edf

    def test_switch_binds_clock(self):
        """The queue reads the engine its switch runs on, through the
        preset: the switch itself hands a queue no clock."""
        clock = EngineClock()
        engine = clock()
        switch = Switch(engine, "sw", 4, ideal_pipelined(clock))
        queue = switch.voq(0, 1, 0)
        engine.at(123, lambda: None)
        engine.run_all()
        assert queue.now_fn() == 123  # bound to the engine clock
        assert not hasattr(switch, "_clock")

    SEEDS = (1, 2, 3, 4, 5)
    CLASSES = ("control", "multimedia", "best-effort", "background")

    def test_full_fabric_run_matches_ideal_closely(self, monkeypatch):
        """Why the pipelined heap is an oracle and not an architecture.

        On ``tiny`` at load 1.0 (the Table 1 mix, video compressed 50x,
        100 us of warm-up, 300 us measured), over seeds 1-5, the Student-t
        ci95 of the paired per-seed ratio ``ideal-pipelined``/``ideal`` of
        each class's mean message latency contains 1, and no seed's two
        runs are identical: the settle window (8 ns, ~250x shorter than an
        MTU serialization) is real but cannot be seen in the results.  The
        pairing holds because both are offered the same messages
        (``tests/experiments/test_common_random_numbers.py``)."""
        engine_factory = engine_factory_for(monkeypatch, NAME)
        summaries = {}
        for arch in ("ideal", NAME):
            for seed in self.SEEDS:
                config = ExperimentConfig(
                    architecture=arch,
                    topology="tiny",
                    load=1.0,
                    seed=seed,
                    warmup_ns=100 * units.US,
                    measure_ns=300 * units.US,
                    mix=scaled_video_mix(1.0, 0.02),
                )
                result = run_experiment(config, engine_factory=engine_factory)
                summaries[arch, seed] = summarize_run(result).classes
        for seed in self.SEEDS:
            assert summaries[NAME, seed] != summaries["ideal", seed]
        for tclass in self.CLASSES:
            ratio = MetricSummary(
                tclass,
                tuple(
                    summaries[NAME, seed][tclass].message_latency.mean
                    / summaries["ideal", seed][tclass].message_latency.mean
                    for seed in self.SEEDS
                ),
            )
            low, high = ratio.ci95
            assert low <= 1.0 <= high, f"{ratio.name}: {ratio.values}"
