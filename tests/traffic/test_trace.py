"""Tests for trace record/replay and real frame-size traces."""

import random

import pytest

from repro.sim.rng import RandomStreams
from repro.traffic.mix import TrafficMixConfig, build_mix
from repro.traffic.trace import (
    FrameSizeTrace,
    TraceRecorder,
    TraceReplaySource,
    load_trace,
    replay_all,
    video_stream_from_trace,
)


@pytest.fixture
def recorded(make_fabric, streams):
    """A short mixed-workload run with its trace."""
    fabric = make_fabric("advanced-2vc")
    recorder = TraceRecorder()
    recorder.attach(fabric)
    mix = build_mix(
        fabric,
        streams,
        TrafficMixConfig(load=0.4, share_multimedia=0.0),  # video rides long timescales
    )
    mix.start()
    fabric.run(until=300_000)
    recorder.detach()
    return fabric, recorder


class TestRecorder:
    def test_records_every_submission(self, recorded):
        fabric, recorder = recorded
        # One record per *message*: compare against generator accounting.
        total_msgs = sum(h.packets_submitted for h in fabric.hosts)
        assert len(recorder.records) > 0
        total_bytes = sum(r[4] for r in recorder.records)
        assert total_bytes == sum(h.bytes_submitted for h in fabric.hosts)

    def test_detach_restores_submit(self, recorded):
        fabric, recorder = recorded
        count = len(recorder.records)
        flow = fabric.open_flow(0, 1, "control", kind="control")
        fabric.submit(flow, 100)
        assert len(recorder.records) == count  # no longer recording

    def test_double_attach_rejected(self, make_fabric):
        recorder = TraceRecorder()
        recorder.attach(make_fabric())
        with pytest.raises(RuntimeError):
            recorder.attach(make_fabric())

    def test_save_and_load_roundtrip(self, recorded, tmp_path):
        _, recorder = recorded
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        loaded = load_trace(path)
        assert loaded == sorted(recorder.records, key=lambda r: r[0])

    def test_gzip_roundtrip(self, recorded, tmp_path):
        _, recorder = recorded
        path = tmp_path / "trace.jsonl.gz"
        recorder.save(path)
        assert load_trace(path) == sorted(recorder.records, key=lambda r: r[0])

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_load_rejects_a_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('["repro-trace", 1]\n')
        with pytest.raises(ValueError, match=r"list\.jsonl:1: not a repro trace file"):
            load_trace(path)

    def test_load_names_the_line_of_a_record_missing_a_key(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\n'
            '{"t": 1, "src": 0, "dst": 2, "tclass": "control", "bytes": 64}\n'
            '{"t": 2, "src": 0, "dst": 2, "tclass": "control"}\n'
        )
        with pytest.raises(ValueError, match=r"short\.jsonl:3: record has no 'bytes' field"):
            load_trace(path)


class TestReplay:
    def test_replay_reproduces_offered_traffic(self, recorded, make_fabric):
        _, recorder = recorded
        replay_fabric = make_fabric("advanced-2vc")
        sources = replay_all(replay_fabric, recorder.records)
        replay_fabric.run(until=400_000)
        recorded_bytes = sum(r[4] for r in recorder.records)
        replayed_bytes = sum(s.bytes_generated for s in sources)
        assert replayed_bytes == recorded_bytes

    def test_replay_preserves_timestamps(self, make_fabric):
        fabric = make_fabric()
        records = [
            (1_000, 0, 5, "control", 256),
            (5_000, 0, 7, "control", 512),
            (5_000, 0, 7, "best-effort", 300),
            (9_000, 0, 5, "control", 128),
        ]
        births = []
        fabric.subscribe_delivery(lambda p, t: births.append((p.birth, p.tclass)))
        source = TraceReplaySource(fabric, 0, records)
        source.start()
        fabric.run(until=100_000)
        assert sorted(set(b for b, _ in births)) == [1_000, 5_000, 9_000]

    def test_second_start_raises_and_replays_once(self, make_fabric):
        fabric = make_fabric()
        records = [(1_000, 0, 5, "control", 256), (3_000, 0, 7, "control", 512)]
        source = TraceReplaySource(fabric, 0, records)
        source.start()
        with pytest.raises(RuntimeError, match="already started"):
            source.start()
        fabric.run(until=50_000)
        assert (source.messages_generated, source.bytes_generated) == (2, 768)

    def test_replay_filters_by_source_host(self, make_fabric):
        fabric = make_fabric()
        records = [
            (100, 0, 5, "control", 256),
            (100, 3, 5, "control", 999),
        ]
        source = TraceReplaySource(fabric, 0, records)
        source.start()
        fabric.run(until=50_000)
        assert source.bytes_generated == 256

    def test_identical_replay_across_architectures(self, recorded, make_fabric):
        """The point of tracing: two architectures see byte-identical
        offered traffic."""
        _, recorder = recorded
        offered = {}
        for arch in ("ideal", "traditional-2vc"):
            fabric = make_fabric(arch)
            submissions = []
            original = fabric.submit
            fabric.submit = lambda f, n, s=submissions, o=original: (s.append((fabric.engine.now, f.spec.src, f.spec.dst, n)), o(f, n))[1]
            replay_all(fabric, recorder.records)
            fabric.run(until=400_000)
            offered[arch] = submissions
        assert offered["ideal"] == offered["traditional-2vc"]


class TestFrameSizeTrace:
    def test_from_file_bytes(self, tmp_path):
        path = tmp_path / "video.txt"
        path.write_text("# comment\n1000\n2000\n\n3000\n")
        trace = FrameSizeTrace.from_file(path)
        assert trace.sizes == (1000, 2000, 3000)
        assert trace.mean == 2000

    def test_from_file_bits(self, tmp_path):
        path = tmp_path / "video.txt"
        path.write_text("8000\n16000\n")
        trace = FrameSizeTrace.from_file(path, unit="bits")
        assert trace.sizes == (1000, 2000)

    def test_multi_column_format(self, tmp_path):
        path = tmp_path / "video.dat"
        path.write_text("0 I 50000\n1 B 1500\n")
        trace = FrameSizeTrace.from_file(path)
        assert trace.sizes == (50000, 1500)

    def test_rate(self):
        trace = FrameSizeTrace((40_000, 80_000))
        assert trace.rate_bytes_per_ns(25.0) == pytest.approx(60_000 * 25 / 1e9)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            FrameSizeTrace.from_file(path)

    def test_bad_unit(self, tmp_path):
        path = tmp_path / "video.txt"
        path.write_text("100\n")
        with pytest.raises(ValueError):
            FrameSizeTrace.from_file(path, unit="nibbles")

    def test_video_stream_from_trace_sends_exact_sizes(self, make_fabric):
        fabric = make_fabric()
        trace = FrameSizeTrace((10_000, 20_000, 30_000))
        stream = video_stream_from_trace(
            fabric, 0, 9, trace, fps=1000.0, target_latency_ns=100_000
        )
        sent = []
        original = fabric.submit

        def spy(flow, nbytes):
            sent.append(nbytes)
            original(flow, nbytes)

        fabric.submit = spy
        stream.start(at=0)
        fabric.run(until=5_000_000)  # 5 frame periods
        assert sent[:3] == [10_000, 20_000, 30_000]
        assert sent[3] == 10_000  # cycles
