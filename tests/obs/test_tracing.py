"""Span-based packet-lifecycle tracing: decomposition exactness,
sampling policies, ring retention, and the full-run integration.

The load-bearing property (the ``trace blame`` analyzer depends on it):
every retained trace's spans telescope -- integer-ns durations that sum
to *exactly* ``deliver - birth``.  Hypothesis drives synthetic event
chains through :func:`decompose_events`, and the integration tests check
the same invariant on every trace a real run retains, including a
clock-skew (TTD) run where deadlines ride on skewed local clocks.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.network.fabric import FabricParams
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    PacketTracer,
    Span,
    SpanTrace,
    decompose_events,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.sim import units
from tests.helpers import mkpkt


class FakeLink:
    """1 byte/ns link stand-in: occupancy == packet size."""

    def occupancy_ns(self, size_bytes: int) -> int:
        return size_bytes


LINK = FakeLink()


def _trace(spans, *, birth=0, deliver=None, slack=-5):
    spans = tuple(spans)
    if deliver is None:
        deliver = spans[-1].end_ns if spans else birth
    return SpanTrace(
        uid=1, flow_id=2, tclass="video", vc=0, src=0, dst=1, size=100,
        deadline=deliver + slack, birth_ns=birth, deliver_ns=deliver,
        slack_ns=slack, missed=slack < 0, spans=spans,
    )


class TestSpanTrace:
    def test_verify_accepts_exact_chain(self):
        trace = _trace([
            Span("host.queue_wait", "h0", 0, 10),
            Span("link.transmit", "h0", 10, 100),
            Span("link.propagate", "h0", 110, 20),
        ])
        trace.verify()
        assert trace.e2e_ns == 130 == sum(s.dur_ns for s in trace.spans)

    def test_verify_rejects_gap(self):
        trace = _trace(
            [Span("host.queue_wait", "h0", 0, 10), Span("link.transmit", "h0", 11, 5)],
            deliver=16,
        )
        with pytest.raises(ValueError, match="gap or overlap"):
            trace.verify()

    def test_verify_rejects_negative_duration(self):
        trace = _trace([Span("host.queue_wait", "h0", 0, -1)], deliver=-1)
        with pytest.raises(ValueError, match="negative"):
            trace.verify()

    def test_verify_rejects_non_exact_sum(self):
        trace = _trace([Span("host.queue_wait", "h0", 0, 10)], deliver=11)
        with pytest.raises(ValueError, match="not exact"):
            trace.verify()

    def test_dict_roundtrip(self):
        trace = _trace([
            Span("host.queue_wait", "h0", 5, 10),
            Span("link.transmit", "h0", 15, 100),
        ], birth=5)
        clone = SpanTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone.to_dict() == trace.to_dict()
        assert clone.spans == trace.spans
        clone.verify()


class TestDecomposeEvents:
    def test_full_lifecycle(self):
        events = [
            ("submit", "h0", 100, 0),
            ("eligible", "", 130, 0),
            ("inject", "", 150, 0),
            ("arrive", "sw0", 300, 120),     # 150ns segment, 120 serializing
            ("forward", "sw0", 340, 0),
            ("deliver", "h1", 480, 120),
        ]
        spans = decompose_events(events)
        assert [s.stage for s in spans] == [
            "host.eligible_wait", "host.queue_wait",
            "link.transmit", "link.propagate",
            "switch.voq_wait",
            "link.transmit", "link.propagate",
        ]
        # the wire segments are attributed to their *sender*
        assert spans[2].node == "h0" and spans[5].node == "sw0"
        assert sum(s.dur_ns for s in spans) == 480 - 100
        assert spans[0].start_ns == 100 and spans[-1].end_ns == 480

    def test_requires_submit_first(self):
        with pytest.raises(ValueError, match="must start with 'submit'"):
            decompose_events([("inject", "", 0, 0)])
        with pytest.raises(ValueError, match="must start with 'submit'"):
            decompose_events([])

    def test_rejects_time_regression(self):
        with pytest.raises(ValueError, match="precedes"):
            decompose_events([("submit", "h0", 10, 0), ("inject", "", 9, 0)])

    def test_rejects_serialization_overflow(self):
        with pytest.raises(ValueError, match="does not fit"):
            decompose_events([("submit", "h0", 0, 0), ("deliver", "h1", 10, 11)])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown lifecycle event"):
            decompose_events([("submit", "h0", 0, 0), ("teleport", "h1", 5, 0)])


@st.composite
def event_chains(draw):
    """A structurally valid lifecycle: submit, optional eligible, inject,
    N switch hops (arrive+forward), deliver -- with arbitrary non-negative
    waits and a serialization share of each wire segment."""
    t = draw(st.integers(0, 10**9))
    events = [("submit", "h0", t, 0)]
    if draw(st.booleans()):
        t += draw(st.integers(0, 10**6))
        events.append(("eligible", "", t, 0))
    t += draw(st.integers(0, 10**6))
    events.append(("inject", "", t, 0))
    hops = draw(st.integers(0, 4))
    for hop in range(hops):
        seg = draw(st.integers(0, 10**6))
        ser = draw(st.integers(0, seg))
        t += seg
        events.append(("arrive", f"sw{hop}", t, ser))
        t += draw(st.integers(0, 10**6))
        events.append(("forward", f"sw{hop}", t, 0))
    seg = draw(st.integers(0, 10**6))
    ser = draw(st.integers(0, seg))
    t += seg
    events.append(("deliver", "h1", t, ser))
    return events


class TestDecompositionProperty:
    @settings(max_examples=200, deadline=None)
    @given(event_chains())
    def test_spans_telescope_exactly(self, events):
        spans = decompose_events(events)
        birth, deliver = events[0][2], events[-1][2]
        # integer-sum identity: no remainder, no float
        assert sum(s.dur_ns for s in spans) == deliver - birth
        # telescoping: each span starts where the previous ended
        t = birth
        for span in spans:
            assert span.start_ns == t and span.dur_ns >= 0
            t = span.end_ns
        assert t == deliver
        # SpanTrace.verify agrees with the manual check
        _trace(spans, birth=birth, deliver=deliver).verify()


class TestNullTracer:
    """Off is ``None``: no disabled tracer, and a tracer without a
    registry is a complete tracer that counts nothing per class."""

    def test_disabled_and_inert(self):
        tracer = PacketTracer(policy="tail", capacity=8, metrics=None)
        assert not hasattr(tracer, "enabled") and tracer.metrics is None
        pkt = mkpkt(5, size=10)
        tracer.begin(pkt, 0, "h0")
        # Between begin and finish the observer appends to the open chain.
        tracer.live[pkt.uid] += [
            ("inject", "", 5, 0),
            ("arrive", "sw0", 40, LINK.occupancy_ns(pkt.size)),
            ("forward", "sw0", 50, 0),
        ]
        tracer.finish(pkt, 100, node="h1", link=LINK, slack_ns=-95)
        assert pkt.traced is True
        assert [t.uid for t in tracer.records] == [pkt.uid]
        tracer.records[0].verify()


class TestPacketTracerValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown sampling policy"):
            PacketTracer(policy="middle")

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError, match="rate"):
            PacketTracer(policy="head", rate=1.5)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PacketTracer(capacity=0)


def _drive(tracer, pkt, *, submit, deliver, slack):
    """Run one packet through the minimal hook sequence."""
    tracer.begin(pkt, submit, "h0")
    if pkt.traced:
        tracer.live[pkt.uid].append(("inject", "", submit + 1, 0))
    pkt.birth = submit
    tracer.finish(pkt, deliver, node="h1", link=LINK, slack_ns=slack)


class TestTailPolicy:
    def test_retains_only_misses(self):
        tracer = PacketTracer(policy="tail", capacity=16)
        hit, miss = mkpkt(10_000, size=10), mkpkt(5, size=10)
        _drive(tracer, hit, submit=0, deliver=100, slack=9_900)
        _drive(tracer, miss, submit=0, deliver=100, slack=-95)
        assert tracer.sampled == 2 and tracer.completed == 2
        assert tracer.misses == 1
        assert [t.uid for t in tracer.records] == [miss.uid]
        assert tracer.records[0].missed is True
        tracer.records[0].verify()

    def test_snapshot_ledger(self):
        tracer = PacketTracer(policy="tail", capacity=8, seed=7)
        _drive(tracer, mkpkt(5, size=10), submit=0, deliver=100, slack=-95)
        snap = tracer.snapshot()
        assert snap == {
            "policy": "tail-deadline-miss",
            "rate": 1.0,  # tail tracks everything; rate is head-only
            "capacity": 8,
            "seed": 7,
            "sampled": 1,
            "unsampled": 0,
            "completed": 1,
            "misses": 1,
            "retained": 1,
            "dropped": 0,
            "inflight": 0,
        }

    def test_ring_drops_oldest_and_counts(self):
        tracer = PacketTracer(policy="tail", capacity=2)
        pkts = [mkpkt(5, size=10) for _ in range(5)]
        for pkt in pkts:
            _drive(tracer, pkt, submit=0, deliver=100, slack=-95)
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        # newest kept, like the event ring (Trace)
        assert [t.uid for t in tracer.records] == [pkts[-2].uid, pkts[-1].uid]

    def test_mints_per_class_retained_counter(self):
        reg = MetricsRegistry()
        tracer = PacketTracer(policy="tail", capacity=8, metrics=reg)
        _drive(tracer, mkpkt(5, size=10, tclass="video"), submit=0, deliver=100, slack=-95)
        _drive(tracer, mkpkt(5, size=10, tclass="video"), submit=0, deliver=100, slack=-95)
        snap = reg.snapshot()
        assert snap["obs.tracing.class.video.retained_total"]["value"] == 2


class TestHeadPolicy:
    def test_deterministic_per_flow_sampling(self):
        def decisions(seed):
            tracer = PacketTracer(policy="head", rate=0.3, seed=seed, capacity=512)
            out = []
            for i in range(200):
                pkt = mkpkt(10**9, size=10, flow_id=i % 4)
                tracer.begin(pkt, i, "h0")
                out.append(pkt.traced)
            return out

        a, b = decisions(42), decisions(42)
        assert a == b, "same seed must sample the same packets"
        assert decisions(43) != a, "different seed should differ somewhere"
        assert 0 < sum(a) < 200, "rate 0.3 should sample some, not all"

    def test_flow_isolation(self):
        """Adding a flow never perturbs the draws of existing flows: the
        stream is derived from (seed, flow_id), not interleaved."""

        def flow0_decisions(flow_ids):
            tracer = PacketTracer(policy="head", rate=0.5, seed=9, capacity=512)
            out = []
            for i in range(100):
                for fid in flow_ids:
                    pkt = mkpkt(10**9, size=10, flow_id=fid)
                    tracer.begin(pkt, i, "h0")
                    if fid == 0:
                        out.append(pkt.traced)
            return out

        assert flow0_decisions([0]) == flow0_decisions([0, 1, 2])

    def test_head_retains_hits_too(self):
        tracer = PacketTracer(policy="head", rate=1.0, capacity=16)
        hit = mkpkt(10_000, size=10)
        _drive(tracer, hit, submit=0, deliver=100, slack=9_900)
        assert len(tracer.records) == 1
        assert tracer.records[0].missed is False

    def test_unsampled_counted_and_untracked(self):
        tracer = PacketTracer(policy="head", rate=0.0, capacity=16)
        pkt = mkpkt(10_000, size=10)
        _drive(tracer, pkt, submit=0, deliver=100, slack=9_900)
        assert pkt.traced is False
        assert tracer.unsampled == 1 and tracer.sampled == 0
        assert tracer.inflight == 0 and tracer.completed == 0


class TestExportRoundtrip:
    def _tracer_with_records(self):
        tracer = PacketTracer(policy="tail", capacity=16)
        for _ in range(3):
            _drive(tracer, mkpkt(5, size=10), submit=0, deliver=100, slack=-95)
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._tracer_with_records()
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            assert write_spans_jsonl(tracer, fp) == 3
        header, traces = read_spans_jsonl(str(path))
        assert header["type"] == "span-trace-summary"
        assert header["retained"] == 3
        assert [t.to_dict() for t in traces] == [t.to_dict() for t in tracer.records]
        for trace in traces:
            trace.verify()

    def test_jsonl_is_byte_stable(self, tmp_path):
        tracer = self._tracer_with_records()
        a, b = io.StringIO(), io.StringIO()
        write_spans_jsonl(tracer, a)
        write_spans_jsonl(tracer, b)
        assert a.getvalue() == b.getvalue()

    def test_read_rejects_non_span_dump(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"type": "trace-summary"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a span-trace dump"):
            read_spans_jsonl(str(path))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            read_spans_jsonl(str(empty))

    def test_chrome_trace_shape(self):
        tracer = self._tracer_with_records()
        out = io.StringIO()
        written = write_chrome_trace(tracer.records, out, run_info={"seed": 1})
        doc = json.loads(out.getvalue())
        assert doc["otherData"] == {"seed": 1}
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert written == len(spans) == sum(len(t.spans) for t in tracer.records)
        assert len(meta) == 1  # one process_name row per flow
        assert meta[0]["args"]["name"].startswith("flow 1")
        # exact integers ride in args even though ts/dur are us floats
        span = spans[0]
        assert span["args"]["dur_ns"] == round(span["dur"] * 1000)


def _config(**params):
    return ExperimentConfig(
        architecture="advanced-2vc",
        load=1.0,
        seed=1,
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
        mix=scaled_video_mix(1.0, 0.02),
        params=FabricParams(**params) if params else FabricParams(),
    )


class TestRunIntegration:
    def test_tail_run_retains_exact_miss_traces(self):
        tracer = PacketTracer(policy="tail", capacity=4096, seed=1)
        result = run_experiment(_config(), tracer=tracer)
        assert result.tracer is tracer
        assert tracer.completed > 100
        assert tracer.misses > 0
        assert len(tracer.records) > 0
        for trace in tracer.records:
            assert trace.missed and trace.slack_ns < 0
            trace.verify()  # exact integer decomposition, every trace
            assert sum(s.dur_ns for s in trace.spans) == trace.e2e_ns

    def test_head_run_samples_deterministically(self):
        snap_a = run_experiment(
            _config(), tracer=PacketTracer(policy="head", rate=0.05, seed=3)
        ).tracer.snapshot()
        snap_b = run_experiment(
            _config(), tracer=PacketTracer(policy="head", rate=0.05, seed=3)
        ).tracer.snapshot()
        assert snap_a == snap_b
        assert snap_a["sampled"] > 0 and snap_a["unsampled"] > 0

    def test_ttd_clock_skew_run_still_decomposes_exactly(self):
        """Under Section 3.3 skewed clocks the deadline/slack bookkeeping
        moves to local clocks, but span timestamps are engine times -- the
        decomposition identity must be untouched."""
        tracer = PacketTracer(policy="tail", capacity=4096, seed=1)
        run_experiment(
            _config(clock_skew_ns=500, clock_skew_seed=11), tracer=tracer
        )
        assert len(tracer.records) > 0
        for trace in tracer.records:
            trace.verify()

    def test_no_tracer_leaves_packets_untraced(self):
        result = run_experiment(_config())
        assert result.tracer is None
