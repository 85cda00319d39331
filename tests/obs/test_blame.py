"""``trace blame`` root-cause attribution: exact integer aggregation,
deterministic (byte-stable) reports, and the checked-on-the-way-in
contract: traces reach ``analyze_blame`` through ``read_spans_jsonl`` or
``PacketTracer.records``, and both refuse a non-exact one."""

from __future__ import annotations

import json

import pytest

from repro.obs.blame import analyze_blame
from repro.obs.tracing import Span, SpanTrace, read_spans_jsonl


def _trace(uid, tclass, spans, *, slack=-10, flow_id=1):
    spans = tuple(spans)
    birth = spans[0].start_ns
    deliver = spans[-1].end_ns
    return SpanTrace(
        uid=uid, flow_id=flow_id, tclass=tclass, vc=0, src=0, dst=1,
        size=100, deadline=deliver + slack, birth_ns=birth,
        deliver_ns=deliver, slack_ns=slack, missed=slack < 0, spans=spans,
    )


def _miss(uid, tclass="video", *, queue=40, voq=50, slack=-10, node="sw0"):
    return _trace(uid, tclass, [
        Span("host.queue_wait", "h0", 0, queue),
        Span("link.transmit", "h0", queue, 10),
        Span("switch.voq_wait", node, queue + 10, voq),
        Span("link.transmit", node, queue + 10 + voq, 10),
    ], slack=slack)


class TestAggregation:
    def test_per_class_stage_totals_are_exact_integers(self):
        report = analyze_blame([
            _miss(1, "video", queue=40, voq=50),
            _miss(2, "video", queue=60, voq=5),
            _miss(3, "control", queue=1, voq=2),
        ])
        assert report.packets == 3 and report.misses == 3
        assert sorted(report.classes) == ["control", "video"]
        video = report.classes["video"]
        assert video.packets == 2
        assert video.stage_totals == {
            "host.queue_wait": 100,
            "link.transmit": 40,
            "switch.voq_wait": 55,
        }
        assert video.stage_counts["link.transmit"] == 4
        # stage totals partition the e2e total exactly
        assert sum(video.stage_totals.values()) == video.e2e_total_ns

    def test_ranked_stages_by_total_then_name(self):
        report = analyze_blame([_miss(1, queue=50, voq=50)])
        ranked = report.classes["video"].ranked_stages()
        assert [r[0] for r in ranked] == [
            "host.queue_wait", "switch.voq_wait", "link.transmit",
        ]  # 50 == 50 tie broken by name; transmit (20) last

    def test_deficit_and_worst_slack(self):
        report = analyze_blame([_miss(1, slack=-10), _miss(2, slack=-70)])
        video = report.classes["video"]
        assert video.deficit_ns == 80
        assert video.worst_slack_ns == -70

    def test_hotspots_top_n(self):
        traces = [_miss(i, node=f"sw{i % 3}") for i in range(9)]
        report = analyze_blame(traces, top=2)
        hotspots = report.classes["video"].ranked_hotspots(2)
        assert len(hotspots) == 2
        # all sites tie at 3 spans x 50ns -> deterministic (stage, node) order
        assert hotspots[0][:2] == ("host.queue_wait", "h0")

    def test_missed_only_skips_hits_but_counts_misses(self):
        hit = _miss(1, slack=5)
        miss = _miss(2, slack=-5)
        report = analyze_blame([hit, miss], missed_only=True)
        assert report.packets == 1 and report.misses == 1
        all_report = analyze_blame([hit, miss], missed_only=False)
        assert all_report.packets == 2 and all_report.misses == 1

    def test_top_must_be_positive(self):
        with pytest.raises(ValueError, match="top"):
            analyze_blame([], top=0)

    def test_corrupt_trace_fails_loudly(self, tmp_path):
        bad = _miss(1)
        bad.deliver_ns += 1  # break the telescoping identity
        path = tmp_path / "spans.jsonl"
        path.write_text(
            json.dumps({"type": "span-trace-summary"}) + "\n"
            + json.dumps(_miss(2).to_dict()) + "\n"
            + json.dumps(bad.to_dict()) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="not exact"):
            read_spans_jsonl(str(path))


class TestReportOutput:
    def test_format_is_byte_stable(self):
        traces = [_miss(i, "video" if i % 2 else "control") for i in range(6)]
        a = analyze_blame(traces).format()
        b = analyze_blame(list(traces)).format()
        assert a == b
        assert a.endswith("\n")

    def test_format_sections(self):
        text = analyze_blame([_miss(1, queue=60, voq=20)]).format()
        assert "blame: 1 missed packet(s)" in text
        assert "class video:" in text
        assert "host.queue_wait" in text and "switch.voq_wait" in text
        assert "top" in text and "@ sw0" in text
        # shares are over the class e2e total: 60/100
        assert "60.0%" in text

    def test_format_empty(self):
        text = analyze_blame([]).format()
        assert "0 missed packet(s)" in text
        assert "nothing to attribute" in text

    def test_json_output_deterministic_and_ordered(self):
        traces = [_miss(i, "video" if i % 2 else "control") for i in range(4)]
        report = analyze_blame(traces)
        doc = json.loads(report.format_json())
        assert doc["type"] == "trace-blame"
        assert [c["tclass"] for c in doc["classes"]] == ["control", "video"]
        assert report.format_json() == analyze_blame(traces).format_json()
        for cls in doc["classes"]:
            assert sum(s["total_ns"] for s in cls["stages"]) == cls["e2e_total_ns"]
