"""Tests for the generator-scripted traffic source."""

import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import AdmissionError
from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric, FabricParams
from repro.network.topology import build_folded_shuffle_min
from repro.sim.engine import SimulationError
from repro.traffic.trace import TraceRecorder
from tests.traffic import scripted, scripted_oracle
from tests.traffic.scripted import ScriptedSource


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


# ----------------------------------------------------------------------
# differential: the tick-driven source against the process-driven oracle
# ----------------------------------------------------------------------
N_HOSTS = 16
T0 = 10_000  # sources start here, so an `at` below it is in the past
END = T0 + 150_000
UNRESERVED = {"vc": 1, "bw_bytes_per_ns": 0.1}
#: Delays the old source rejected: ValueError, ValueError, SimulationError x2.
BAD_DELAYS = (-5, -0.5, 1.5, True)


@st.composite
def scripts(draw):
    """A few sources on distinct hosts, each with a script that mixes zero
    and non-zero delays (sometimes a bad one), a start time that is
    absent, past or future, and an optional stop (and restart) mid-script."""
    hosts = draw(st.lists(st.integers(0, N_HOSTS - 1), min_size=1, max_size=3, unique=True))
    sources = []
    for src in hosts:
        length = draw(st.integers(0, 24))
        steps = draw(
            st.lists(
                st.tuples(
                    st.one_of(st.just(0), st.integers(1, 4_000)),
                    st.integers(1, N_HOSTS - 1).map(lambda off, s=src: (s + off) % N_HOSTS),
                    st.integers(1, 3_000),
                ),
                min_size=length,
                max_size=length,
            )
        )
        if draw(st.booleans()):  # a fan-out: past ten, default flows are refused
            steps = [(d, (src + 1 + i % 15) % N_HOSTS, n) for i, (d, _, n) in enumerate(steps)]
        if steps and draw(st.integers(0, 11)) == 5:
            k = draw(st.integers(0, len(steps) - 1))
            steps[k] = (draw(st.sampled_from(BAD_DELAYS)),) + steps[k][1:]
        at = draw(st.one_of(st.none(), st.integers(0, T0 + 20_000)))
        if draw(st.integers(0, 19)) == 7:
            at = T0 + 500.5  # a float start: fails in the first tick
        reserving = draw(st.booleans())
        sources.append((src, steps, at, None if reserving else UNRESERVED))
    stop = None
    if draw(st.booleans()):
        stop = (
            draw(st.integers(0, len(sources) - 1)),
            draw(st.integers(T0, T0 + 40_000)),
            draw(st.one_of(st.none(), st.integers(0, T0 + 60_000))),  # restart at, or none
            draw(st.booleans()),  # restart?
        )
    return sources, stop


def _play(source_cls, scenario):
    """Run one scenario; everything a caller can observe of it."""
    sources_spec, stop = scenario
    fabric = Fabric(
        build_folded_shuffle_min(4, 4, 4), ARCHITECTURES["advanced-2vc"], FabricParams()
    )
    recorder = TraceRecorder()
    recorder.attach(fabric)
    deliveries = []
    fabric.subscribe_delivery(lambda p, t: deliveries.append((t, p.src, p.dst, p.size)))
    failure = None
    sources = []
    try:
        fabric.run(until=T0)
        for src, steps, at, flow_kwargs in sources_spec:
            source = source_cls(fabric, src, iter(list(steps)), flow_kwargs=flow_kwargs)
            sources.append(source)
            source.start(at=at)
        if stop is not None:
            index, stop_at, restart_at, restart = stop
            fabric.run(until=stop_at)
            sources[index].stop()
            if restart:
                sources[index].start(at=restart_at)
        fabric.run(until=END)
    except Exception as exc:  # the script's own failure, at the step it fails
        failure = (type(exc), str(exc), fabric.engine.now, len(recorder.records))
    return {
        "submissions": recorder.records,
        "deliveries": deliveries,
        "failure": failure,
        "events": fabric.engine.events_executed,
        "sources": [(s.running, s.messages_generated, s.bytes_generated) for s in sources],
    }


class TestAgainstProcessOracle:
    """The source runs on the tick every other source uses; the process
    layer it replaced (``tests/traffic/scripted_oracle.py``) is the oracle.
    Same submissions and deliveries, same event count, same source state,
    same failure (type, message, time, submissions before it)."""

    @settings(max_examples=150, deadline=None)
    @given(scripts())
    def test_same_run_as_the_process_oracle(self, scenario):
        expected = _play(scripted_oracle.ScriptedSource, scenario)
        assert _play(ScriptedSource, scenario) == expected

    @pytest.mark.parametrize(
        "bad, error",
        [(-5, ValueError), (-0.5, ValueError), (1.5, SimulationError), (True, SimulationError)],
    )
    def test_a_bad_delay_fails_at_its_step_like_the_oracle(self, bad, error):
        scenario = ([(3, [(100, 5, 64), (bad, 6, 64), (100, 7, 64)], None, UNRESERVED)], None)
        got = _play(ScriptedSource, scenario)
        assert got == _play(scripted_oracle.ScriptedSource, scenario)
        kind, _, when, submitted = got["failure"]
        assert kind is error
        assert (when, submitted) == (T0 + 100, 1)  # read right after the first step

    def test_a_restart_drops_the_step_the_stop_interrupted(self):
        steps = [(1_000, dst, 64) for dst in range(1, 7)]
        # stopped while sleeping towards the third step, reopened 2.5 us later
        scenario = ([(0, steps, None, UNRESERVED)], (0, T0 + 2_500, T0 + 5_000, True))
        got = _play(ScriptedSource, scenario)
        assert got == _play(scripted_oracle.ScriptedSource, scenario)
        assert [(t - T0, dst) for t, _, dst, _, _ in got["submissions"]] == [
            (1_000, 1), (2_000, 2), (6_000, 4), (7_000, 5), (8_000, 6)
        ]
        assert got["sources"] == [(False, 5, 320)]

    def test_default_flows_refuse_the_eleventh_destination_like_the_oracle(self):
        steps = [(50, dst, 64) for dst in range(1, 13)]
        scenario = ([(0, steps, None, None)], None)
        got = _play(ScriptedSource, scenario)
        assert got == _play(scripted_oracle.ScriptedSource, scenario)
        assert got["failure"][0] is AdmissionError
        assert got["sources"] == [(True, 10, 640)]
