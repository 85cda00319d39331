"""Snapshot document assembly, export, diffing, and the schema checker."""

import io
import json
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate
from repro.obs.snapshot import (
    SCHEMA_VERSION,
    diff_snapshots,
    dump_snapshot,
    format_diff,
    format_snapshot,
    load_snapshot,
    run_snapshot,
    write_trace_jsonl,
)
from repro.sim.engine import Engine
from repro.sim.monitor import Trace


_SCHEMA_PATH = Path(__file__).resolve().parents[2] / "docs" / "metrics_schema.json"


def _registry():
    reg = MetricsRegistry()
    reg.counter("a.b.hits_total", unit="packets").inc(3)
    reg.gauge("a.b.depth_events").set(7)
    h = reg.histogram("a.b.wait_ns", bounds=(0, 10), unit="ns")
    h.observe(5)
    return reg


class TestRunSnapshot:
    def test_minimal_document(self):
        doc = run_snapshot(_registry())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["run"] == {}
        assert set(doc["metrics"]) == {"a.b.hits_total", "a.b.depth_events", "a.b.wait_ns"}
        assert "engine" not in doc and "trace" not in doc

    def test_engine_block(self):
        eng = Engine()
        eng.at(5, lambda: None)
        handle = eng.at_cancellable(6, lambda: None)
        handle.cancel()
        eng.run(until=10)
        doc = run_snapshot(_registry(), engine=eng)
        assert doc["engine"] == {
            "now_ns": 10,
            "events_executed": 1,
            "pending_events": 0,
            "tombstones_discarded": 1,
            "tombstone_ratio": 0.5,
        }

    def test_trace_block_only_when_enabled(self):
        trace = Trace(capacity=4)
        trace.record(1, "a")
        doc = run_snapshot(_registry(), trace=trace, run_info={"seed": 3})
        assert doc["trace"]["retained"] == 1
        assert doc["run"] == {"seed": 3}

    def test_dump_load_roundtrip(self, tmp_path):
        doc = run_snapshot(_registry(), run_info={"seed": 1})
        path = tmp_path / "snap.json"
        with open(path, "w", encoding="utf-8") as fp:
            dump_snapshot(doc, fp)
        assert load_snapshot(str(path)) == doc
        # byte stability: identical documents serialize identically
        second = io.StringIO()
        dump_snapshot(run_snapshot(_registry(), run_info={"seed": 1}), second)
        assert second.getvalue() == path.read_text(encoding="utf-8")

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"not": "a snapshot"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_snapshot(str(path))


class TestTraceJsonl:
    def test_header_plus_records(self):
        trace = Trace()
        trace.record(10, "switch.forward", "pkt", 3)
        trace.record(20, "link.busy", object())  # non-JSON payload -> repr
        out = io.StringIO()
        assert write_trace_jsonl(trace, out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header["type"] == "trace-summary" and header["retained"] == 2
        rec = json.loads(lines[1])
        assert rec == {"t_ns": 10, "topic": "switch.forward", "payload": ["pkt", 3]}
        json.loads(lines[2])  # repr fallback still yields valid JSON


class TestFormatting:
    def test_format_snapshot_sections(self):
        eng = Engine()
        eng.at(0, lambda: None)
        eng.run_all()
        text = format_snapshot(run_snapshot(_registry(), engine=eng, run_info={"seed": 1}))
        assert "run:" in text and "engine:" in text
        assert "counters:" in text and "gauges:" in text and "histograms:" in text
        assert "a.b.hits_total" in text
        assert "<=10:1" in text  # histogram bucket rendering

    def test_diff_snapshots(self):
        reg_b = _registry()
        reg_b.counter("a.b.hits_total").inc(2)
        reg_b.histogram("a.b.wait_ns", bounds=(0, 10)).observe(99)
        reg_b.counter("a.b.extra_total")
        doc_a, doc_b = run_snapshot(_registry()), run_snapshot(reg_b)
        diff = diff_snapshots(doc_a, doc_b)
        assert diff["only_a"] == [] and diff["only_b"] == ["a.b.extra_total"]
        assert diff["changed"]["a.b.hits_total"]["delta"] == 2
        assert diff["changed"]["a.b.wait_ns"]["count"] == [1, 2]
        text = format_diff(diff, label_a="A", label_b="B")
        assert "+ a.b.extra_total" in text and "(+2)" in text

    def test_diff_identical(self):
        doc = run_snapshot(_registry())
        diff = diff_snapshots(doc, doc)
        assert diff == {"only_a": [], "only_b": [], "changed": {}}
        assert format_diff(diff) == "snapshots are identical"


def _traced_registry(misses=2):
    """A registry plus a tracer that retained ``misses`` miss traces,
    with the per-class retained counters minted into the registry."""
    from repro.obs.tracing import PacketTracer
    from tests.helpers import mkpkt

    class _Link:
        def occupancy_ns(self, size_bytes):
            return size_bytes

    reg = _registry()
    tracer = PacketTracer(policy="tail", capacity=8, seed=3, metrics=reg)
    for _ in range(misses):
        pkt = mkpkt(5, size=10, tclass="video")
        tracer.begin(pkt, 0, "h0")
        pkt.traced += ("inject", "", 1, 0)
        tracer.finish(pkt, 100, node="h1", link=_Link(), slack_ns=-95)
    return reg, tracer


class TestSpansSection:
    """Schema v2: the optional ``spans`` block from a PacketTracer."""

    def test_present_only_when_tracing(self):
        reg, tracer = _traced_registry()
        doc = run_snapshot(reg, tracer=tracer)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["spans"] == tracer.snapshot()
        assert doc["spans"]["retained"] == 2
        assert "spans" not in run_snapshot(_registry())
        # off is None; a tracer that retained nothing still reports its ledger
        assert "spans" not in run_snapshot(_registry(), tracer=None)
        _, idle = _traced_registry(misses=0)
        assert run_snapshot(_registry(), tracer=idle)["spans"]["retained"] == 0

    def test_roundtrip_preserves_spans(self, tmp_path):
        reg, tracer = _traced_registry()
        doc = run_snapshot(reg, tracer=tracer, run_info={"seed": 3})
        path = tmp_path / "snap.json"
        with open(path, "w", encoding="utf-8") as fp:
            dump_snapshot(doc, fp)
        assert load_snapshot(str(path))["spans"] == tracer.snapshot()

    def test_format_snapshot_spans_line(self):
        reg, tracer = _traced_registry()
        text = format_snapshot(run_snapshot(reg, tracer=tracer))
        assert "spans: 2 sampled, 2 retained, 0 dropped (tail-deadline-miss)" in text

    def test_diff_sees_tracer_minted_counters(self):
        reg_a, tracer_a = _traced_registry(misses=1)
        reg_b, tracer_b = _traced_registry(misses=3)
        diff = diff_snapshots(
            run_snapshot(reg_a, tracer=tracer_a),
            run_snapshot(reg_b, tracer=tracer_b),
        )
        change = diff["changed"]["obs.tracing.class.video.retained_total"]
        assert change["delta"] == 2

    def test_spans_block_is_schema_valid(self):
        schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
        reg, tracer = _traced_registry()
        doc = json.loads(json.dumps(run_snapshot(reg, tracer=tracer)))
        assert validate(doc, schema) == []

    def test_schema_catches_spans_corruption(self):
        schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
        reg, tracer = _traced_registry()
        doc = json.loads(json.dumps(run_snapshot(reg, tracer=tracer)))
        doc["spans"]["policy"] = "coin-flip"
        doc["spans"]["dropped"] = -1
        doc["spans"]["rate"] = 2.0
        doc["spans"]["bogus"] = True
        errors = validate(doc, schema)
        assert len(errors) == 4


class TestSchemaValidator:
    def test_type_checks(self):
        assert validate(3, {"type": "integer"}) == []
        assert validate(True, {"type": "integer"}) != []  # bool is not an int here
        assert validate(3.5, {"type": "number"}) == []
        assert validate(3, {"type": ["integer", "null"]}) == []
        assert validate(None, {"type": ["integer", "null"]}) == []
        assert validate("x", {"type": "integer"}) != []

    def test_enum_and_minimum(self):
        assert validate("counter", {"enum": ["counter", "gauge"]}) == []
        assert validate("ring", {"enum": ["counter", "gauge"]}) != []
        assert validate(-1, {"type": "integer", "minimum": 0}) != []

    def test_object_rules(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        assert validate({"a": 1}, schema) == []
        assert any("missing required" in e for e in validate({}, schema))
        assert any("unexpected property" in e for e in validate({"a": 1, "b": 2}, schema))

    def test_additional_properties_schema(self):
        schema = {"type": "object", "additionalProperties": {"type": "number"}}
        assert validate({"x": 1.5}, schema) == []
        assert validate({"x": "no"}, schema) != []

    def test_array_items_with_paths(self):
        errors = validate([1, "two"], {"type": "array", "items": {"type": "integer"}})
        assert len(errors) == 1 and "[1]" in errors[0]

    def test_real_snapshot_against_checked_in_schema(self):
        schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
        eng = Engine()
        eng.at(0, lambda: None)
        eng.run_all()
        trace = Trace(capacity=2)
        trace.record(0, "a")
        doc = run_snapshot(_registry(), engine=eng, trace=trace, run_info={"seed": 1})
        doc = json.loads(json.dumps(doc))  # what CI actually validates
        assert validate(doc, schema) == []

    def test_schema_catches_corruption(self):
        schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
        doc = json.loads(json.dumps(run_snapshot(_registry())))
        doc["metrics"]["a.b.hits_total"]["type"] = "bogus"
        doc["schema_version"] = 99
        errors = validate(doc, schema)
        assert len(errors) == 2
