"""RunTelemetry heartbeat sampling, its row log, and counter syncing."""

import hashlib
import inspect
import io
import json

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.presets import make_topology
from repro.experiments.runner import run_experiment
from repro.network.fabric import Fabric
from repro.obs import telemetry as telemetry_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import run_snapshot
from repro.obs.telemetry import RunTelemetry, sync_component_totals
from repro.sim import units

FAST = dict(
    architecture="advanced-2vc",
    load=1.0,
    topology="tiny",
    warmup_ns=50 * units.US,
    measure_ns=150 * units.US,
    mix=scaled_video_mix(1.0, 0.02),
)


GAUGES = [
    "network.fabric.packets_in_flight",
    "network.host.queued_packets",
    "network.link.utilization_ratio",
    "network.switch.queued_packets",
    "sim.engine.events_per_sec",
    "sim.engine.heap_depth_events",
    "sim.engine.tombstone_ratio",
]


def heartbeat(heartbeat_ns=100, until_ns=300, **kwargs):
    """A telemetry on an idle ``tiny`` fabric, run to ``until_ns``."""
    fabric = Fabric(make_topology("tiny"))
    tel = RunTelemetry(
        fabric.engine, fabric, heartbeat_ns=heartbeat_ns, until_ns=until_ns, **kwargs
    )
    fabric.run(until=until_ns)
    return tel


class TestGaugeTimeSeries:
    """The heartbeat's row log, kept by :class:`RunTelemetry` itself."""

    def test_append_copies_the_row(self):
        tel = heartbeat()
        rows = [row for _, row in tel.samples]
        assert len({id(row) for row in rows}) == len(rows) == 3
        section = tel.snapshot()
        section["samples"][0]["values"]["sim.engine.heap_depth_events"] = 99
        assert tel.samples[0][1]["sim.engine.heap_depth_events"] != 99

    def test_names_series_latest(self):
        tel = heartbeat(until_ns=500)
        assert [t_ns for t_ns, _ in tel.samples] == [100, 200, 300, 400, 500]
        assert all(sorted(row) == GAUGES for _, row in tel.samples)
        # an idle fabric: nothing in flight, no link busy
        assert tel.samples[-1][1]["network.fabric.packets_in_flight"] == 0
        assert tel.samples[-1][1]["network.link.utilization_ratio"] == 0

    def test_to_dict_sorts_value_keys(self):
        doc = heartbeat(until_ns=100).snapshot()
        assert doc["capacity"] == RunTelemetry.TIMESERIES_CAPACITY == 65536
        assert doc["dropped"] == 0
        assert [sample["t_ns"] for sample in doc["samples"]] == [100]
        assert list(doc["samples"][0]["values"]) == GAUGES

    def test_capacity_keeps_newest_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(RunTelemetry, "TIMESERIES_CAPACITY", 3)
        tel = heartbeat(until_ns=500)
        assert tel.ticks == 5
        assert [t_ns for t_ns, _ in tel.samples] == [300, 400, 500]
        assert tel.dropped == 2
        doc = tel.snapshot()
        assert doc["capacity"] == 3
        assert doc["dropped"] == 2

    def test_rejects_nonpositive_capacity(self):
        # the bound is a positive class constant; no keyword can unset it
        assert type(RunTelemetry.TIMESERIES_CAPACITY) is int
        assert RunTelemetry.TIMESERIES_CAPACITY > 0
        assert "capacity" not in inspect.signature(RunTelemetry).parameters
        assert heartbeat(until_ns=100).samples.maxlen == RunTelemetry.TIMESERIES_CAPACITY


class TestRunTelemetry:
    def test_heartbeat_tick_count_and_timestamps(self):
        tel = heartbeat(heartbeat_ns=1000, until_ns=3500)
        assert tel.ticks == 3
        assert [t for t, _ in tel.samples] == [1000, 2000, 3000]

    def test_rejects_nonpositive_heartbeat(self):
        fabric = Fabric(make_topology("tiny"))
        with pytest.raises(ValueError, match="heartbeat"):
            RunTelemetry(fabric.engine, fabric, heartbeat_ns=0)
        assert fabric.engine.pending == 0  # refused before it scheduled a tick

    @pytest.mark.parametrize("heartbeat_ns", [1000.5, 1000.0, True], ids=repr)
    def test_rejects_non_int_heartbeat(self, heartbeat_ns):
        # a float interval used to pass and fail the run later, at the
        # engine's integer-time check
        with pytest.raises(ValueError, match=repr(heartbeat_ns)):
            RunTelemetry.check_interval(heartbeat_ns)

    def test_samplers_and_events_per_sec_recorded(self):
        fabric = Fabric(make_topology("tiny"))
        eng = fabric.engine
        for t in range(0, 500, 10):
            eng.at(t, lambda: None)
        tel = RunTelemetry(eng, fabric, heartbeat_ns=100, until_ns=500)
        eng.run(until=500)
        assert all(sorted(row) == GAUGES for _, row in tel.samples)
        depths = [row["sim.engine.heap_depth_events"] for _, row in tel.samples]
        assert [a - b for a, b in zip(depths, depths[1:])] == [10, 10, 10, 10]
        # engine executes events *during* the run, so mid-run sampling
        # must see a moving count (the live-counter regression test).
        eps = [row["sim.engine.events_per_sec"] for _, row in tel.samples]
        assert any(v > 0 for v in eps)

    def test_values_mirrored_into_registry_gauges(self):
        reg = MetricsRegistry()
        tel = heartbeat(until_ns=200, metrics=reg)
        _, latest = tel.samples[-1]
        for name in GAUGES:
            assert reg.gauge(name).value == latest[name], name

    def test_on_tick_hooks_run_every_heartbeat(self, monkeypatch):
        # every tick folds the component tallies into the registry
        calls = []
        monkeypatch.setattr(
            telemetry_module,
            "sync_component_totals",
            lambda engine, fabric, metrics: calls.append((engine.now, metrics)),
        )
        reg = MetricsRegistry()
        heartbeat(metrics=reg)
        assert calls == [(100, reg), (200, reg), (300, reg)]

    def test_live_progress_writes_status_line(self):
        stream = io.StringIO()
        heartbeat(until_ns=200, live=True, stream=stream)
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


#: sha256 of the snapshot's ``timeseries`` section for FAST at a 25 us
#: heartbeat, wall-clock ``sim.engine.events_per_sec`` values removed.
HEARTBEAT_GOLDEN = "68ba26ad29162a3d5ad214033ea521d74e865d446609be9fe948f971fba681a3"


def heartbeat_digest() -> str:
    result = run_experiment(
        ExperimentConfig(**FAST), metrics=MetricsRegistry(), heartbeat_ns=25 * units.US
    )
    section = run_snapshot(result.metrics, telemetry=result.telemetry)["timeseries"]
    for sample in section["samples"]:
        del sample["values"]["sim.engine.events_per_sec"]
    return hashlib.sha256(json.dumps(section, sort_keys=True).encode()).hexdigest()


def test_heartbeat_log_bytes_are_pinned():
    assert heartbeat_digest() == HEARTBEAT_GOLDEN


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

    @pytest.mark.parametrize("heartbeat_ns", [None, 25 * units.US], ids=["metrics-only", "heartbeat"])
    def test_grants_are_the_switches_forwards(self, heartbeat_ns):
        result = run_experiment(
            ExperimentConfig(**FAST), metrics=MetricsRegistry(), heartbeat_ns=heartbeat_ns
        )
        assert (result.telemetry is not None) == (heartbeat_ns is not None)
        forwarded = sum(switch.packets_forwarded for switch in result.fabric.switches.values())
        grants = result.metrics.counter("core.arbiter.grants_total").value
        assert grants == forwarded > 0
        assert result.metrics.counter("core.arbiter.picks_total").value >= grants

    def test_takeover_hits_counted_under_load(self):
        result = run_experiment(ExperimentConfig(**FAST), metrics=MetricsRegistry())
        assert result.metrics.counter("core.takeover.hits_total").value > 0
        assert result.metrics.counter("network.link.busy_ns_total").value > 0
