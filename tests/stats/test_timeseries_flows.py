"""Tests for the time-series and per-flow collectors."""

import pytest

from tests.helpers import mkpkt
from tests.stats.delivery_series import DeliveryTimeSeries
from tests.stats.per_flow import PerFlowCollector


def delivered(tclass="control", *, birth=0, size=100, flow_id=1, src=0, dst=1):
    return mkpkt(0, tclass=tclass, birth=birth, size=size, flow_id=flow_id, src=src, dst=dst)


class TestDeliveryTimeSeries:
    def test_bucketing(self):
        series = DeliveryTimeSeries(bucket_ns=1000)
        series.on_delivery(delivered(size=100), 50)
        series.on_delivery(delivered(size=200), 999)
        series.on_delivery(delivered(size=400), 1000)
        curve = series.throughput_curve("control")
        assert curve == [(0, 0.3), (1000, 0.4)]

    def test_gap_filling(self):
        series = DeliveryTimeSeries(bucket_ns=100)
        series.on_delivery(delivered(size=100), 0)
        series.on_delivery(delivered(size=100), 350)
        curve = series.throughput_curve("control")
        assert [v for _, v in curve] == [1.0, 0.0, 0.0, 1.0]

    def test_latency_curve(self):
        series = DeliveryTimeSeries(bucket_ns=1000)
        series.on_delivery(delivered(birth=0), 100)
        series.on_delivery(delivered(birth=0), 300)
        assert series.latency_curve("control") == [(0, 200.0)]

    def test_class_filter(self):
        series = DeliveryTimeSeries(bucket_ns=100, classes=("multimedia",))
        series.on_delivery(delivered(tclass="control"), 10)
        series.on_delivery(delivered(tclass="multimedia"), 10)
        assert series.classes() == ["multimedia"]

    def test_empty_class(self):
        series = DeliveryTimeSeries(bucket_ns=100)
        assert series.throughput_curve("nothing") == []

    def test_steady_state_detector(self):
        series = DeliveryTimeSeries(bucket_ns=100)
        # ramp: 1 packet, then 4, then steady 10 per bucket
        deliveries = [1, 4, 10, 10, 10, 10]
        t = 0
        for count in deliveries:
            for _ in range(count):
                series.on_delivery(delivered(size=10), t)
            t += 100
        start = series.steady_state_start("control", tolerance=0.1)
        assert start == 200  # the first all-steady bucket

    def test_steady_state_none_for_short_series(self):
        series = DeliveryTimeSeries(bucket_ns=100)
        series.on_delivery(delivered(), 0)
        assert series.steady_state_start("control") is None

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            DeliveryTimeSeries(bucket_ns=0)


class TestPerFlowCollector:
    def test_per_flow_partitioning(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1, size=100), 10)
        collector.on_delivery(delivered(flow_id=2, size=200), 10)
        collector.on_delivery(delivered(flow_id=1, size=300), 20)
        assert len(collector) == 2
        assert collector.get(1).bytes == 400
        assert collector.get(2).packets == 1

    def test_latency_per_flow(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1, birth=0), 100)
        collector.on_delivery(delivered(flow_id=1, birth=0), 300)
        assert collector.get(1).latency.mean == 200

    def test_warmup_filter(self):
        collector = PerFlowCollector(warmup_ns=1000)
        collector.on_delivery(delivered(birth=500), 1500)
        assert len(collector) == 0

    def test_by_class(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1, tclass="a"), 10)
        collector.on_delivery(delivered(flow_id=2, tclass="b"), 10)
        assert [f.flow_id for f in collector.by_class("a")] == [1]

    def test_worst_by_latency(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1, birth=0), 100)
        collector.on_delivery(delivered(flow_id=2, birth=0), 900)
        collector.on_delivery(delivered(flow_id=3, birth=0), 500)
        worst = collector.worst_by_latency(2)
        assert [f.flow_id for f in worst] == [2, 3]

    def test_throughput_spread(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1, size=1000), 10)
        collector.on_delivery(delivered(flow_id=2, size=3000), 10)
        lo, mean, hi = collector.throughput_spread("control", window_ns=1000)
        assert (lo, mean, hi) == (1.0, 2.0, 3.0)

    def test_throughput_spread_empty(self):
        collector = PerFlowCollector()
        assert collector.throughput_spread("x", 100) == (0.0, 0.0, 0.0)

    def test_delivery_window_tracking(self):
        collector = PerFlowCollector()
        collector.on_delivery(delivered(flow_id=1), 100)
        collector.on_delivery(delivered(flow_id=1), 900)
        stats = collector.get(1)
        assert stats.first_delivery_ns == 100
        assert stats.last_delivery_ns == 900
