"""Tests for the generator-scripted traffic source."""

import textwrap

import pytest

from repro.core.admission import AdmissionError
from repro.core.flow import FlowKind
from repro.traffic import scripted
from repro.traffic.scripted import ScriptedSource


class TestScriptedSource:
    def test_steps_execute_at_scripted_times(self, make_fabric):
        fabric = make_fabric()
        births = []
        fabric.subscribe_delivery(lambda p, t: births.append((p.birth, p.dst, p.size)))

        def script():
            yield 1_000, 5, 256
            yield 2_000, 7, 512
            yield 0, 5, 128  # immediately after the previous step

        ScriptedSource(fabric, 0, script()).start()
        fabric.run(until=200_000)
        assert sorted(births) == [(1_000, 5, 256), (3_000, 5, 128), (3_000, 7, 512)]

    def test_start_at_offsets_script(self, make_fabric):
        fabric = make_fabric()
        births = []
        fabric.subscribe_delivery(lambda p, t: births.append(p.birth))

        def script():
            yield 100, 3, 64

        ScriptedSource(fabric, 0, script()).start(at=10_000)
        fabric.run(until=100_000)
        assert births == [10_100]

    def test_stop_kills_mid_script(self, make_fabric):
        fabric = make_fabric()
        count = []
        fabric.subscribe_delivery(lambda p, t: count.append(p))

        def endless():
            while True:
                yield 1_000, 1, 64

        source = ScriptedSource(fabric, 0, endless())
        source.start()
        fabric.run(until=10_500)
        source.stop()
        fabric.run(until=100_000)
        assert len(count) == 10
        assert not source.running

    def test_custom_flow_kwargs(self, make_fabric):
        fabric = make_fabric()
        vcs = []
        fabric.subscribe_delivery(lambda p, t: vcs.append(p.vc))

        def script():
            yield 10, 4, 100

        ScriptedSource(
            fabric,
            0,
            script(),
            tclass="bulk",
            flow_kwargs={"kind": FlowKind.RATE, "vc": 1, "bw_bytes_per_ns": 0.2},
        ).start()
        fabric.run(until=50_000)
        assert vcs == [1]

    def test_accounting(self, make_fabric):
        fabric = make_fabric()

        def script():
            yield 10, 1, 100
            yield 10, 2, 200

        source = ScriptedSource(fabric, 0, script())
        source.start()
        fabric.run(until=50_000)
        assert source.messages_generated == 2
        assert source.bytes_generated == 300

    def test_barrier_fanout_scenario(self, make_fabric):
        """The docstring's collective-communication pattern end to end."""
        fabric = make_fabric()
        arrivals_at_root = []
        fanout = []
        fabric.subscribe_delivery(
            lambda p, t: (arrivals_at_root if p.dst == 0 else fanout).append(p)
        )

        def worker(src):
            yield 1_000 * src, 0, 64  # skewed arrivals

        for src in range(1, 8):
            ScriptedSource(fabric, src, worker(src)).start()

        def fan(src=0):
            yield 20_000, 1, 1024
            for dst in range(2, 8):
                yield 500, dst, 1024

        ScriptedSource(fabric, 0, fan()).start()
        fabric.run(until=200_000)
        assert len(arrivals_at_root) == 7
        assert len(fanout) == 7

    def test_double_start_rejected(self, make_fabric):
        fabric = make_fabric()

        def script():
            yield 10, 1, 100

        source = ScriptedSource(fabric, 0, script())
        source.start()
        with pytest.raises(RuntimeError):
            source.start()


class TestDocumentedDefaults:
    def test_the_module_docstring_example_runs(self, make_fabric):
        """The example is executed as written (the indented block after
        ``::``), on the 16-host fabric its host numbers assume."""
        _, _, rest = scripted.__doc__.partition("::\n")
        lines = rest.splitlines()
        end = next(i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("    "))
        example = textwrap.dedent("\n".join(lines[:end]))
        assert "ScriptedSource(" in example and "flow_kwargs" in example

        fabric = make_fabric()
        delivered = []
        fabric.subscribe_delivery(lambda p, t: delivered.append((p.src, p.dst, p.vc)))
        exec(example, {"fabric": fabric, "ScriptedSource": ScriptedSource})
        fabric.run(until=500_000)
        # per source: two messages to the root and one to each of 14 others
        assert len(delivered) == 15 * 16
        assert {vc for _, _, vc in delivered} == {1}
        assert sum(dst == 0 for _, dst, _ in delivered) == 30
        assert fabric.admission.reservation_count == 0

    def test_default_flows_reserve_and_the_eleventh_destination_is_refused(self, make_fabric):
        fabric = make_fabric()

        def fan_out():
            for dst in range(1, 13):
                yield 100, dst, 64

        ScriptedSource(fabric, 0, fan_out()).start()
        with pytest.raises(AdmissionError, match=r"flow 11 \(0->11, 0\.1000 B/ns\) rejected"):
            fabric.run(until=100_000)
        assert fabric.admission.reservation_count == 10
        assert len(fabric.flows) == 10
