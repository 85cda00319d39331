"""Unit tests for the metric primitives and registry."""

import pytest

from repro.core.arbiter import MeteredPicker
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    SLACK_BUCKETS_NS,
    WAIT_BUCKETS_NS,
)
from repro.obs.observer import FabricObserver
from repro.sim.monitor import Trace
from tests.helpers import mkpkt


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("a.b.c_total")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_delta_rejected(self):
        c = Counter("a.b.c_total")
        with pytest.raises(MetricError):
            c.inc(-1)
        assert c.value == 0  # failed inc must not corrupt the count

    def test_zero_delta_is_allowed(self):
        c = Counter("a.b.c_total")
        c.inc(0)
        assert c.value == 0

    def test_to_dict(self):
        c = Counter("a.b.c_total", unit="packets")
        c.inc(3)
        assert c.to_dict() == {"type": "counter", "unit": "packets", "value": 3}


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("a.b.c_ratio")
        assert g.value == 0.0
        g.set(1.5)
        g.set(-2.0)  # gauges, unlike counters, may go down
        assert g.value == -2.0

    def test_to_dict(self):
        g = Gauge("a.b.c_ratio", unit="ratio")
        g.set(0.25)
        assert g.to_dict() == {"type": "gauge", "unit": "ratio", "value": 0.25}


class TestHistogram:
    def test_edges_must_be_nonempty_and_strictly_increasing(self):
        # each message names the instrument, not the class
        with pytest.raises(MetricError, match=r"histogram 'a\.b\.c_ns' needs >= 1 bucket edge"):
            Histogram("a.b.c_ns", bounds=())
        with pytest.raises(MetricError, match=r"histogram 'a\.b\.c_ns' bucket edges must be strictly"):
            Histogram("a.b.c_ns", bounds=(1, 1, 2))
        with pytest.raises(MetricError, match=r"histogram 'a\.b\.c_ns' bucket edges must be strictly"):
            Histogram("a.b.c_ns", bounds=(2, 1))

    def test_bucket_boundaries_are_inclusive_upper(self):
        h = Histogram("a.b.c_ns", bounds=(0, 10, 100))
        # bucket i holds bounds[i-1] < v <= bounds[i]; last is overflow.
        h.observe(-5)  # <= 0
        h.observe(0)  # exactly on the first edge -> first bucket
        h.observe(1)  # (0, 10]
        h.observe(10)  # exactly on an edge -> that bucket, not the next
        h.observe(11)  # (10, 100]
        h.observe(100)
        h.observe(101)  # overflow
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7

    def test_min_max_mean_total(self):
        h = Histogram("a.b.c_ns", bounds=(10,))
        assert h.min is None and h.max is None and h.mean == 0.0
        for v in (5, -3, 12):
            h.observe(v)
        assert (h.min, h.max, h.total) == (-3, 12, 14)
        assert h.mean == pytest.approx(14 / 3)

    def test_merge(self):
        a = Histogram("a.b.left_ns", bounds=(0, 10))
        b = Histogram("a.b.right_ns", bounds=(0, 10))
        a.observe(5)
        b.observe(-1)
        b.observe(50)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert (a.min, a.max, a.total) == (-1, 50, 54)

    def test_merge_into_empty_adopts_min_max(self):
        a = Histogram("a.b.left_ns", bounds=(0,))
        b = Histogram("a.b.right_ns", bounds=(0,))
        b.observe(7)
        a.merge(b)
        assert (a.min, a.max, a.count) == (7, 7, 1)

    def test_merge_requires_identical_edges(self):
        a = Histogram("a.b.left_ns", bounds=(0, 10))
        b = Histogram("a.b.right_ns", bounds=(0, 20))
        with pytest.raises(MetricError):
            a.merge(b)

    def test_to_dict_shape(self):
        h = Histogram("a.b.c_ns", bounds=(0, 10), unit="ns")
        h.observe(3)
        doc = h.to_dict()
        assert doc == {
            "type": "histogram",
            "unit": "ns",
            "bounds": [0, 10],
            "counts": [0, 1, 0],
            "count": 1,
            "sum": 3,
            "min": 3,
            "max": 3,
        }


class TestNameValidation:
    @pytest.mark.parametrize(
        "bad",
        ["", " a.b.c", "a.b.c ", "two.segments", "a..c", "a.b.c$", "a.b c.d"],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(MetricError):
            MetricsRegistry().counter(bad)

    def test_good_names_accepted(self):
        reg = MetricsRegistry()
        reg.counter("network.switch.vc0.enqueue_packets_total")
        reg.gauge("sim.engine.heap_depth_events")
        reg.histogram("network.host.delivery_slack_ns", bounds=SLACK_BUCKETS_NS)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("a.b.c_total")
        b = reg.counter("a.b.c_total")
        assert a is b
        a.inc()
        assert reg.counter("a.b.c_total").value == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b.c_total")
        with pytest.raises(MetricError):
            reg.gauge("a.b.c_total")
        with pytest.raises(MetricError):
            reg.histogram("a.b.c_total", bounds=(0,))

    def test_histogram_edge_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("a.b.c_ns", bounds=(0, 10))
        reg.histogram("a.b.c_ns", bounds=(0, 10))  # same edges: fine
        with pytest.raises(MetricError):
            reg.histogram("a.b.c_ns", bounds=(0, 20))

    def test_container_protocol(self):
        reg = MetricsRegistry()
        assert len(reg) == 0 and "a.b.c_total" not in reg
        reg.counter("a.b.c_total")
        assert len(reg) == 1 and "a.b.c_total" in reg
        assert reg.names() == ["a.b.c_total"]
        assert reg.get("a.b.c_total").value == 0
        with pytest.raises(KeyError):
            reg.get("missing.metric.name")

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.z.z_total").inc(2)
        reg.gauge("a.a.a_ratio").set(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.a.a_ratio", "z.z.z_total"]
        assert snap["z.z.z_total"]["value"] == 2


class TestNullMetrics:
    """Off is ``None``: no disabled registry, no ``enabled`` flag, and an
    observer without a registry has no instruments to feed."""

    def test_disabled_flag(self, make_fabric):
        assert not hasattr(MetricsRegistry(), "enabled")
        fabric = make_fabric()
        assert fabric.metrics is None
        assert all(host.obs is None for host in fabric.hosts)
        assert all(switch.obs is None for switch in fabric.switches.values())

    def test_instruments_are_shared_inert_singletons(self):
        # a ring-only observer mints no instrument, leaves the pickers
        # unwrapped, and still reports every lifecycle point to its ring
        ring = Trace()
        obs = FabricObserver(ring, None, None, 2)
        assert not any(isinstance(v, (Counter, Histogram, list)) for v in vars(obs).values())
        pickers = [[object(), object()]]
        assert obs.meter_pickers(pickers) is pickers
        pkt = mkpkt(1000)
        obs.submit(pkt, 0, "h0", True)
        obs.deliver(pkt, 20, "h1", None, -5)  # a miss: would hit three instruments
        assert [r.topic for r in ring.records] == ["host.deliver"]

    def test_snapshot_empty(self):
        # the same observer over a registry mints into it, and only then
        reg = MetricsRegistry()
        assert reg.snapshot() == {}
        obs = FabricObserver(None, reg, None, 2)
        assert "network.host.vc1.deadline_miss_total" in reg
        ((wrapped,),) = obs.meter_pickers([[object()]])
        assert isinstance(wrapped, MeteredPicker) and "core.arbiter.picks_total" in reg
        obs.deliver(mkpkt(1000), 20, "h1", None, -5)
        assert reg.get("network.host.vc0.deadline_miss_total").value == 1


class TestBucketConstants:
    @pytest.mark.parametrize(
        "bounds", [SLACK_BUCKETS_NS, DEPTH_BUCKETS, WAIT_BUCKETS_NS]
    )
    def test_shared_bucket_edges_are_valid(self, bounds):
        h = Histogram("a.b.c_x", bounds=bounds)
        assert len(h.counts) == len(bounds) + 1
