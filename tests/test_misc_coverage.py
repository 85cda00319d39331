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
        from tests.traffic.cbr import CbrSource

        source = CbrSource(make_fabric(), 0, 1, 0.1)
        assert source.offered_bytes_per_ns(0) == 0.0


class TestReportEdgeCases:
    def test_bool_cells_left_aligned(self):
        from repro.stats.report import format_table

        text = format_table(["flag"], [[True], [False]])
        assert "True" in text and "False" in text


class TestQueueBaseDefaults:
    def test_unbounded_free_bytes_sentinel(self):
        # A queue holds packets, not bytes: it takes what the link's
        # credits let through, and its truth is its length.
        from repro.core.queues import FifoQueue
        from tests.helpers import mkpkt

        queue = FifoQueue()
        for deadline in range(64):  # 128 KiB, far past one VC buffer
            queue.push(mkpkt(deadline, size=2048))
        assert queue and len(queue) == 64
        while queue:
            queue.pop()
        assert not queue and queue.front is None

    def test_invalid_capacity(self):
        # No capacity option; the base class is the bare contract.
        from repro.core.queues import FifoQueue, PacketQueue
        from tests.helpers import mkpkt

        with pytest.raises(TypeError):
            FifoQueue(0)
        base = PacketQueue()
        for call in (lambda: base.push(mkpkt(1)), base.pop, lambda: len(base), lambda: iter(base)):
            with pytest.raises(NotImplementedError):
                call()


@pytest.mark.parametrize(
    "example",
    ["quickstart.py", "takeover_queue_anatomy.py", "trace_replay.py", "video_streaming.py"],
)
def test_light_examples_run_clean(example, capsys):
    """The fast examples execute end to end without error.  (The two
    heavier ones -- evaluate_custom_design, ~15 s, and mixed_datacenter,
    ~8 s -- run in a step of CI's tier-1 job instead.)"""
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
