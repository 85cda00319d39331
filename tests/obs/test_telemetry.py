"""RunTelemetry heartbeat sampling, GaugeTimeSeries, and counter syncing."""

import io

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry, sync_component_totals
from repro.sim import units
from repro.sim.engine import Engine
from repro.stats.timeseries import GaugeTimeSeries

FAST = dict(
    architecture="advanced-2vc",
    load=1.0,
    topology="tiny",
    warmup_ns=50 * units.US,
    measure_ns=150 * units.US,
    mix=scaled_video_mix(1.0, 0.02),
)


class TestGaugeTimeSeries:
    def test_append_copies_the_row(self):
        ts = GaugeTimeSeries()
        row = {"a.b.c_x": 1.0}
        ts.append(10, row)
        row["a.b.c_x"] = 99.0
        assert ts.series("a.b.c_x") == [(10, 1.0)]

    def test_names_series_latest(self):
        ts = GaugeTimeSeries()
        ts.append(10, {"b.b.b_x": 1.0})
        ts.append(20, {"a.a.a_x": 2.0, "b.b.b_x": 3.0})
        assert ts.names() == ["a.a.a_x", "b.b.b_x"]
        assert ts.series("b.b.b_x") == [(10, 1.0), (20, 3.0)]
        assert ts.latest("a.a.a_x") == 2.0
        assert ts.latest("missing.gauge.name") is None
        assert len(ts) == 2

    def test_to_dict_sorts_value_keys(self):
        ts = GaugeTimeSeries()
        ts.append(5, {"z.z.z_x": 1.0, "a.a.a_x": 2.0})
        doc = ts.to_dict()
        assert doc == {
            "samples": [{"t_ns": 5, "values": {"a.a.a_x": 2.0, "z.z.z_x": 1.0}}],
            "capacity": None,
            "dropped": 0,
        }
        assert list(doc["samples"][0]["values"]) == ["a.a.a_x", "z.z.z_x"]

    def test_capacity_keeps_newest_and_counts_drops(self):
        ts = GaugeTimeSeries(capacity=3)
        for t in range(5):
            ts.append(t * 10, {"g.g.g_x": float(t)})
        assert len(ts) == 3
        assert [t for t, _ in ts.samples] == [20, 30, 40]
        assert ts.dropped == 2
        doc = ts.to_dict()
        assert doc["capacity"] == 3
        assert doc["dropped"] == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            GaugeTimeSeries(capacity=0)


class TestRunTelemetry:
    def test_heartbeat_tick_count_and_timestamps(self):
        eng = Engine()
        tel = RunTelemetry(eng, heartbeat_ns=1000)
        tel.start(until_ns=3500)
        eng.run(until=3500)
        assert tel.ticks == 3
        assert [t for t, _ in tel.timeseries.samples] == [1000, 2000, 3000]

    def test_rejects_nonpositive_heartbeat(self):
        with pytest.raises(ValueError):
            RunTelemetry(Engine(), heartbeat_ns=0)

    def test_samplers_and_events_per_sec_recorded(self):
        eng = Engine()
        tel = RunTelemetry(eng, heartbeat_ns=100)
        tel.add_sampler("sim.engine.heap_depth_events", lambda: eng.pending)
        for t in range(0, 500, 10):
            eng.at(t, lambda: None)
        tel.start(until_ns=500)
        eng.run(until=500)
        names = tel.timeseries.names()
        assert "sim.engine.events_per_sec" in names
        assert "sim.engine.heap_depth_events" in names
        # engine executes events *during* the run, so mid-run sampling
        # must see a moving count (the live-counter regression test).
        eps = [v for _, v in tel.timeseries.series("sim.engine.events_per_sec")]
        assert any(v > 0 for v in eps)

    def test_values_mirrored_into_registry_gauges(self):
        eng = Engine()
        reg = MetricsRegistry()
        tel = RunTelemetry(eng, heartbeat_ns=100, metrics=reg)
        tel.add_sampler("sim.engine.heap_depth_events", lambda: eng.pending)
        tel.start(until_ns=200)
        eng.run(until=200)
        assert reg.gauge("sim.engine.heap_depth_events").value == tel.timeseries.latest(
            "sim.engine.heap_depth_events"
        )

    def test_on_tick_hooks_run_every_heartbeat(self):
        eng = Engine()
        tel = RunTelemetry(eng, heartbeat_ns=100)
        calls = []
        tel.on_tick(lambda: calls.append(eng.now))
        tel.start(until_ns=300)
        eng.run(until=300)
        assert calls == [100, 200, 300]

    def test_live_progress_writes_status_line(self):
        eng = Engine()
        stream = io.StringIO()
        tel = RunTelemetry(eng, heartbeat_ns=100, live=True, stream=stream)
        tel.start(until_ns=200)
        eng.run(until=200)
        out = stream.getvalue()
        assert "[telemetry]" in out and "ev/s" in out
        assert out.endswith("\n")  # live mode closes the status line

    def test_telemetry_does_not_change_results(self):
        plain = run_experiment(ExperimentConfig(**FAST))
        observed = run_experiment(
            ExperimentConfig(**FAST),
            metrics=MetricsRegistry(),
            heartbeat_ns=25 * units.US,
        )
        assert observed.telemetry is not None and observed.telemetry.ticks > 0
        for tclass in ("control", "best-effort"):
            assert (
                observed.collector.get(tclass).packet_latency.mean
                == plain.collector.get(tclass).packet_latency.mean
            )
        assert observed.collector.classes.keys() == plain.collector.classes.keys()


class TestSyncComponentTotals:
    def test_sync_is_idempotent_per_total(self):
        result = run_experiment(ExperimentConfig(**FAST), metrics=MetricsRegistry())
        reg = result.metrics
        events = reg.counter("sim.engine.events_total").value
        assert events == result.events_executed > 0
        # runner already synced once; syncing again must not double count
        sync_component_totals(result.fabric.engine, result.fabric, reg)
        assert reg.counter("sim.engine.events_total").value == events

    def test_sync_noop_when_disabled(self):
        # off is None: an unobserved run carries no registry, and syncing
        # into none is a no-op rather than an error
        result = run_experiment(ExperimentConfig(**FAST))
        assert result.metrics is None and result.fabric.metrics is None
        assert sync_component_totals(result.fabric.engine, result.fabric, None) is None

    def test_takeover_hits_counted_under_load(self):
        result = run_experiment(ExperimentConfig(**FAST), metrics=MetricsRegistry())
        assert result.metrics.counter("core.takeover.hits_total").value > 0
        assert result.metrics.counter("network.link.busy_ns_total").value > 0
