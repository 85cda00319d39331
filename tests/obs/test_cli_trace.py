"""End-to-end CLI tests for ``run --trace-spans/--trace-chrome`` and the
``trace blame`` / ``trace export`` subcommands, including the acceptance
gate: same-seed runs produce byte-identical blame reports."""

from __future__ import annotations

import hashlib
import json

from repro.cli import main
from repro.obs.tracing import read_spans_jsonl

FAST = ["--topology", "tiny", "--warmup-us", "50", "--measure-us", "120"]


def _gapped(path, missed):
    """``path`` with one span of the first trace whose ``missed`` is
    ``missed`` started 40 ns late, so the chain no longer telescopes."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], 1):
        doc = json.loads(line)
        if doc["missed"] == missed:
            doc["spans"][1][2] += 40
            lines[i] = json.dumps(doc)
            break
    else:
        raise AssertionError(f"no trace with missed={missed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run_with_spans(tmp_path, name="spans.jsonl", extra=()):
    out = tmp_path / name
    rc = main(
        [
            "run",
            "--arch",
            "advanced-2vc",
            "--load",
            "1.0",
            *FAST,
            "--trace-spans",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestRunTraceSpans:
    def test_dump_is_loadable_and_exact(self, tmp_path, capsys):
        path = _run_with_spans(tmp_path)
        err = capsys.readouterr().err
        assert "[span traces written to" in err
        header, traces = read_spans_jsonl(str(path))
        assert header["policy"] == "tail-deadline-miss"
        assert header["retained"] == len(traces) > 0
        for trace in traces:
            assert trace.missed
            trace.verify()

    def test_head_policy_flags(self, tmp_path, capsys):
        path = _run_with_spans(
            tmp_path, extra=["--span-policy", "head", "--span-rate", "0.05"]
        )
        capsys.readouterr()
        header, traces = read_spans_jsonl(str(path))
        assert header["policy"] == "head-probabilistic"
        assert header["rate"] == 0.05
        assert header["unsampled"] > 0
        # head sampling keeps hits as well as misses
        assert any(not t.missed for t in traces)

    #: sha256 of the head-sampled dump below, captured when every flow
    #: still kept its own ``RandomStream``: the per-flow decision bits
    #: must sample the same packets.  The 2 ms window takes 424 flows
    #: past their first block of decisions.
    HEAD_DUMP_SHA256 = "a194964fdf33633cf15992416e4902fcc7faafe785a91aa8e658bb1592bb5a0e"

    def test_head_sampled_dump_bytes_are_pinned(self, tmp_path, capsys):
        path = tmp_path / "head.jsonl"
        rc = main(
            [
                "run", "--arch", "advanced-2vc", "--load", "1.0",
                "--topology", "tiny", "--warmup-us", "50", "--measure-us", "2000",
                "--trace-spans", str(path), "--span-policy", "head",
                "--span-rate", "0.05", "--span-capacity", "100000",
            ]
        )
        capsys.readouterr()
        assert rc == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.HEAD_DUMP_SHA256

    def test_bad_span_rate_is_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--load", "1.0", *FAST,
                "--trace-spans", str(tmp_path / "s.jsonl"),
                "--span-policy", "head", "--span-rate", "1.5",
            ]
        )
        assert rc == 2
        assert "rate" in capsys.readouterr().err

    def test_chrome_export_from_run(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        _run_with_spans(tmp_path, extra=["--trace-chrome", str(chrome)])
        capsys.readouterr()
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["topology"] == "tiny"

    def test_snapshot_gains_spans_section(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        _run_with_spans(tmp_path, extra=["--metrics-out", str(snap)])
        capsys.readouterr()
        doc = json.loads(snap.read_text(encoding="utf-8"))
        assert doc["spans"]["policy"] == "tail-deadline-miss"
        assert doc["spans"]["retained"] > 0
        assert doc["spans"]["sampled"] >= doc["spans"]["completed"]
        # the per-class retained counters were minted into the registry
        assert any(
            name.startswith("obs.tracing.class.") for name in doc["metrics"]
        )

    def test_snapshot_without_tracer_has_no_spans(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        rc = main(
            ["run", "--load", "1.0", *FAST, "--metrics-out", str(snap)]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(snap.read_text(encoding="utf-8"))
        assert "spans" not in doc


class TestTraceBlame:
    def test_blame_end_to_end(self, tmp_path, capsys):
        path = _run_with_spans(tmp_path)
        capsys.readouterr()
        assert main(["trace", "blame", str(path)]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "retained trace(s), policy tail-deadline-miss" in captured.err
        assert "blame:" in out and "class " in out
        assert "host.queue_wait" in out or "switch.voq_wait" in out

    def test_blame_byte_identical_across_same_seed_runs(self, tmp_path, capsys):
        a = _run_with_spans(tmp_path, "a.jsonl", extra=["--seed", "5"])
        b = _run_with_spans(tmp_path, "b.jsonl", extra=["--seed", "5"])
        # uids are minted per fabric, so two in-process runs write the
        # same bytes, uids included.
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["trace", "blame", str(a), "--json"]) == 0
        out_a = capsys.readouterr().out
        assert main(["trace", "blame", str(b), "--json"]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b and out_a

    def test_blame_json_and_all(self, tmp_path, capsys):
        path = _run_with_spans(
            tmp_path, extra=["--span-policy", "head", "--span-rate", "0.05"]
        )
        capsys.readouterr()
        assert main(["trace", "blame", str(path), "--json", "--all", "--top", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["missed_only"] is False
        assert doc["packets"] >= doc["misses"]
        for cls in doc["classes"]:
            assert len(cls["hotspots"]) <= 2

    def test_blame_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["trace", "blame", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace:" in capsys.readouterr().err

    def test_blame_wrong_dump_type_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "other.jsonl"
        path.write_text('{"type": "trace-summary"}\n', encoding="utf-8")
        assert main(["trace", "blame", str(path)]) == 2
        assert "not a span-trace dump" in capsys.readouterr().err

    def test_blame_gapped_hit_is_exit_2(self, tmp_path, capsys):
        # blame without --all attributes only misses; a broken hit in the
        # same dump is still refused, at load
        path = _run_with_spans(tmp_path, extra=["--span-policy", "head", "--span-rate", "0.05"])
        capsys.readouterr()
        assert main(["trace", "blame", str(_gapped(path, missed=False))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(gap or overlap)" in captured.err

    def test_blame_bad_top_is_exit_2(self, tmp_path, capsys):
        path = _run_with_spans(tmp_path)
        capsys.readouterr()
        assert main(["trace", "blame", str(path), "--top", "0"]) == 2


class TestTraceExport:
    def test_export_round_trip(self, tmp_path, capsys):
        spans = _run_with_spans(tmp_path)
        out = tmp_path / "chrome.json"
        capsys.readouterr()
        assert main(["trace", "export", str(spans), "-o", str(out)]) == 0
        assert "[chrome trace written" in capsys.readouterr().err
        doc = json.loads(out.read_text(encoding="utf-8"))
        _, traces = read_spans_jsonl(str(spans))
        span_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(span_events) == sum(len(t.spans) for t in traces)
        assert doc["otherData"] == {"source": str(spans)}

    def test_export_gapped_dump_is_exit_2(self, tmp_path, capsys):
        spans = _gapped(_run_with_spans(tmp_path), missed=True)
        out = tmp_path / "chrome.json"
        capsys.readouterr()
        assert main(["trace", "export", str(spans), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"repro-qos trace: {spans}: packet ")
        assert "(gap or overlap)" in err[0]
        assert not out.exists()
