"""Tests for the per-class metrics collector."""

import pytest

from repro.stats.collectors import ClassStats, MetricsCollector
from tests.helpers import mkpkt


def delivered(deadline=0, *, tclass="control", birth=0, size=256, **kw):
    return mkpkt(deadline, tclass=tclass, birth=birth, size=size, **kw)


class Recorder:
    """One class's :class:`ClassStats`, filled the one way there is:
    through :meth:`MetricsCollector.on_delivery` with no warm-up."""

    def __init__(self, tclass):
        self.collector = MetricsCollector()
        self.stats = self.collector.classes[tclass] = ClassStats(tclass)

    def record(self, pkt, now):
        self.collector.on_delivery(pkt, now)


class TestClassStats:
    def test_packet_latency(self):
        recorder = Recorder("control")
        recorder.record(delivered(birth=100), now=150)
        recorder.record(delivered(birth=100), now=250)
        stats = recorder.stats
        assert stats.packet_latency.count == 2
        assert stats.packet_latency.mean == pytest.approx(100.0)

    def test_single_packet_message_completes_immediately(self):
        recorder = Recorder("control")
        recorder.record(delivered(birth=0), now=40)
        assert recorder.stats.messages == 1
        assert recorder.stats.message_latency.mean == 40

    def test_multi_packet_message_latency_is_last_packet(self):
        recorder = Recorder("multimedia")
        stats = recorder.stats
        parts = [
            delivered(tclass="multimedia", birth=100, msg_id=7, msg_seq=i, msg_parts=3)
            for i in range(3)
        ]
        recorder.record(parts[0], now=200)
        recorder.record(parts[1], now=300)
        assert stats.messages == 0  # incomplete
        recorder.record(parts[2], now=450)
        assert stats.messages == 1
        assert stats.message_latency.mean == 350  # 450 - 100

    def test_out_of_order_parts_still_complete(self):
        recorder = Recorder("multimedia")
        parts = [
            delivered(tclass="multimedia", birth=0, msg_id=1, msg_seq=i, msg_parts=2)
            for i in range(2)
        ]
        recorder.record(parts[1], now=10)
        recorder.record(parts[0], now=30)
        assert recorder.stats.messages == 1

    def test_jitter_is_consecutive_frame_latency_diffs(self):
        recorder = Recorder("multimedia")
        # Frame latencies 100, 140, 120 for flow 1 -> diffs 40, 20.
        for msg_id, (birth, arrive) in enumerate([(0, 100), (500, 640), (900, 1020)]):
            recorder.record(
                delivered(tclass="multimedia", birth=birth, msg_id=msg_id, flow_id=1),
                now=arrive,
            )
        assert recorder.stats.jitter.count == 2
        assert recorder.stats.jitter.mean == pytest.approx(30.0)

    def test_jitter_tracked_per_flow(self):
        recorder = Recorder("x")
        recorder.record(delivered(tclass="x", birth=0, msg_id=0, flow_id=1), now=100)
        recorder.record(delivered(tclass="x", birth=0, msg_id=0, flow_id=2), now=900)
        # Different flows: no cross-flow jitter sample.
        assert recorder.stats.jitter.count == 0

    def test_forget_flow_drops_the_jitter_anchor(self):
        recorder = Recorder("x")
        stats = recorder.stats
        recorder.record(delivered(tclass="x", birth=0, msg_id=0, flow_id=1), now=100)
        stats.forget_flow(1)
        # The next frame of flow 1 has no anchor: no jitter sample.
        recorder.record(delivered(tclass="x", birth=0, msg_id=1, flow_id=1), now=300)
        assert stats.jitter.count == 0
        stats.forget_flow(99)  # unknown flows are a no-op

    def test_throughput(self):
        recorder = Recorder("x")
        recorder.record(delivered(tclass="x", size=1000), now=0)
        recorder.record(delivered(tclass="x", size=500), now=0)
        assert recorder.stats.throughput_bytes_per_ns(3000) == pytest.approx(0.5)


class TestMetricsCollector:
    def test_classes_partitioned(self):
        collector = MetricsCollector()
        collector.on_delivery(delivered(tclass="control"), 10)
        collector.on_delivery(delivered(tclass="multimedia"), 10)
        assert set(collector.classes) == {"control", "multimedia"}

    def test_warmup_filters_latency_but_not_throughput(self):
        collector = MetricsCollector(warmup_ns=1000)
        collector.on_delivery(delivered(birth=999), 1500)  # born in warm-up
        collector.on_delivery(delivered(birth=1000), 1500)
        assert collector.dropped_warmup == 1
        stats = collector.get("control")
        assert stats.packet_latency.count == 1  # latency: post-warmup births
        assert stats.packets == 2  # throughput: all in-window deliveries

    def test_delivery_during_warmup_not_counted_for_throughput(self):
        collector = MetricsCollector(warmup_ns=1000)
        collector.on_delivery(delivered(birth=0, size=600), 500)
        collector.finalize(2000)
        assert collector.throughput("control") == 0.0

    def test_throughput_window(self):
        collector = MetricsCollector(warmup_ns=1000)
        collector.on_delivery(delivered(birth=1200, size=600), 1500)
        collector.finalize(4000)
        assert collector.window_ns == 3000
        assert collector.throughput("control") == pytest.approx(0.2)

    def test_throughput_before_finalize_raises(self):
        collector = MetricsCollector()
        collector.on_delivery(delivered(), 10)
        with pytest.raises(RuntimeError):
            collector.throughput("control")

    def test_unknown_class_throughput_is_zero(self):
        collector = MetricsCollector()
        collector.finalize(100)
        assert collector.throughput("nope") == 0.0

    def test_get_unknown_class_raises_with_known_list(self):
        collector = MetricsCollector()
        collector.on_delivery(delivered(tclass="control"), 10)
        with pytest.raises(KeyError, match="control"):
            collector.get("bogus")

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup_ns=-1)
