"""Small coverage gaps: default constructors, helper methods, examples."""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestBuildFabricDefaults:
    def test_paper_scale_default(self):
        from repro import build_fabric

        fabric = build_fabric()
        assert fabric.topology.n_hosts == 128
        assert len(fabric.switches) == 24
        assert fabric.params.bytes_per_ns == 1.0

    def test_explicit_topology(self, tiny_topology):
        from repro import build_fabric
        from repro.core.architectures import IDEAL

        fabric = build_fabric(IDEAL, topology=tiny_topology)
        assert fabric.topology is tiny_topology
        assert fabric.architecture is IDEAL


class TestRunResultHelpers:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.exec.summary import execute_config
        from repro.experiments.config import ExperimentConfig, scaled_video_mix

        return execute_config(
            ExperimentConfig(
                architecture="simple-2vc",
                load=0.4,
                topology="tiny",
                warmup_ns=50_000,
                measure_ns=150_000,
                mix=scaled_video_mix(0.4, 0.02),
            )
        )

    def test_latency_helpers(self, result):
        assert result.get("control").packet_latency.mean > 0
        assert result.get("control").message_latency.mean > 0

    def test_unknown_class_offered_raises(self, result):
        # Typos in class names should fail loudly, not report 0.
        with pytest.raises(KeyError):
            result.offered("nonexistent-class")


class TestTrafficSourceBase:
    def test_offered_rate_zero_elapsed(self, make_fabric):
        from repro.traffic.cbr import CbrSource

        source = CbrSource(make_fabric(), 0, 1, 0.1)
        assert source.offered_bytes_per_ns(0) == 0.0


class TestReportEdgeCases:
    def test_bool_cells_left_aligned(self):
        from repro.stats.report import format_table

        text = format_table(["flag"], [[True], [False]])
        assert "True" in text and "False" in text


class TestQueueBaseDefaults:
    def test_unbounded_free_bytes_sentinel(self):
        from repro.core.queues import FifoQueue

        queue = FifoQueue(None)
        assert queue.free_bytes > 10**15

    def test_invalid_capacity(self):
        from repro.core.queues import FifoQueue

        with pytest.raises(ValueError):
            FifoQueue(0)


@pytest.mark.parametrize(
    "example",
    ["quickstart.py", "takeover_queue_anatomy.py", "video_streaming.py"],
)
def test_light_examples_run_clean(example, capsys):
    """The fast examples execute end to end without error.  (The heavier
    ones -- mixed_datacenter, trace_replay, evaluate_custom_design -- run
    ~1 minute each and are exercised manually / by CI nightlies.)"""
    path = REPO / "examples" / example
    saved_argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    out = capsys.readouterr().out
    assert out.strip(), f"{example} printed nothing"
    assert "Traceback" not in out
