"""Tests for the pipelined-heap buffer (the paper's reference [9])."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.queues import EDFHeapQueue, PipelinedHeapQueue
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
    def test_registered(self):
        from repro.core.architectures import ARCHITECTURES, IDEAL_PIPELINED

        assert ARCHITECTURES["ideal-pipelined"] is IDEAL_PIPELINED
        queue = IDEAL_PIPELINED.make_queue()
        assert isinstance(queue, PipelinedHeapQueue)
        assert queue.depth == 8

    def test_switch_binds_clock(self, engine):
        from repro.core.architectures import IDEAL_PIPELINED
        from repro.network.switch import Switch

        switch = Switch(engine, "sw", 4, IDEAL_PIPELINED)
        queue = switch.voq(0, 1, 0)
        engine.at(123, lambda: None)
        engine.run_all()
        assert queue.now_fn() == 123  # bound to the engine clock

    def test_full_fabric_run_matches_ideal_closely(self, tiny_topology):
        """The settle window (8 ns) is ~250x smaller than an MTU
        serialization, so the pipelined heap's end-to-end results track
        the abstract Ideal within noise -- the paper's objection to it is
        silicon cost, not timing, and this shows why."""
        from repro.core.architectures import ARCHITECTURES
        from repro.experiments.config import scaled_video_mix
        from repro.network.fabric import Fabric
        from repro.sim.rng import RandomStreams
        from repro.stats.collectors import MetricsCollector
        from repro.traffic.mix import build_mix

        means = {}
        for arch in ("ideal", "ideal-pipelined"):
            fabric = Fabric(tiny_topology, ARCHITECTURES[arch])
            collector = MetricsCollector(warmup_ns=100_000)
            fabric.subscribe_delivery(collector.on_delivery)
            mix = build_mix(fabric, RandomStreams(5), scaled_video_mix(0.8, 0.02))
            mix.start()
            fabric.run(until=400_000)
            collector.finalize(fabric.engine.now)
            means[arch] = collector.get("control").packet_latency.mean
        assert means["ideal-pipelined"] == pytest.approx(means["ideal"], rel=0.1)
