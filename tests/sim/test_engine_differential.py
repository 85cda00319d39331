"""Differential proof: dict-calendar engine == binary-heap reference.

The engine's only license to exist is byte-for-bit equivalence with the
reference heap engine (`tests.sim.heap_engine.HeapEngine`, the seed's
kernel kept verbatim beside this file).  Two layers of evidence:

1. A Hypothesis property drives both engines through the *same* random
   interleaving of schedule / cancellable-schedule / cancel /
   ``run(until)`` / ``run(max_events)`` operations -- including
   callbacks that schedule more work or call ``stop()``, zero delays,
   and delays from 0 to 12 us -- and requires identical execution logs
   ``(time, tag)``, clocks, and counters at every observation point,
   and that the engine's two containers describe the same buckets.

2. The three figure-style experiment configs (fig2 control / fig3
   video / fig4 best-effort shapes) run end-to-end under both engines
   and must produce **byte-identical** ``RunSummary`` JSON and
   span-trace JSONL output.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.summary import summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.obs.tracing import PacketTracer, write_spans_jsonl
from repro.sim import units
from repro.sim.engine import Engine
from tests.sim.heap_engine import HeapEngine

# Delays straddle 4 096 ns, the horizon of the timing wheel this harness
# was written against: few enough distinct times that buckets fill,
# enough that `_times` holds many at once.
_MAX_DELAY = 4096 * 3


class _Driver:
    """Apply one op sequence to an engine, logging every dispatch."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self.handles = []
        self.target = 0
        self._tag = 0

    def _fire(self, tag, respawn_delay):
        self.log.append((self.engine.now, tag))
        if respawn_delay is not None:
            # Callback-scheduled follow-up: exercises the same-bucket
            # append-during-iteration path.
            self.engine.after(respawn_delay, self._fire, tag + 1_000_000, None)

    def _stop(self, tag):
        self.log.append((self.engine.now, tag))
        self.engine.stop()

    def apply(self, op):
        kind = op[0]
        if kind == "at":
            _, delay, cancellable, respawn = op
            self._tag += 1
            respawn_delay = delay % 7 if respawn else None
            if cancellable:
                self.handles.append(
                    self.engine.at_cancellable(
                        self.engine.now + delay, self._fire, self._tag, respawn_delay
                    )
                )
            else:
                self.engine.after(delay, self._fire, self._tag, respawn_delay)
        elif kind == "stop":
            # Ends whichever run() dispatches it -- mid-bucket when other
            # events share its timestamp -- and the next run() must
            # resume with the rest of that timestamp, in order.
            self._tag += 1
            self.engine.after(op[1], self._stop, self._tag)
        elif kind == "cancel":
            if self.handles:
                self.handles.pop(op[1] % len(self.handles)).cancel()
        elif kind == "run_until":
            self.target = max(self.target, self.engine.now) + op[1]
            self.log.append(("ran", self.engine.run(until=self.target)))
        elif kind == "run_max":
            self.log.append(("ran", self.engine.run(max_events=op[1])))
        self.observe()

    def observe(self):
        engine = self.engine
        self.log.append(("obs", engine.now, engine.pending, engine.tombstones_discarded))
        if isinstance(engine, Engine):
            # Fails if an edit leaks a bucket or a timestamp: the heap
            # names exactly the dict's keys, and no bucket is empty.
            buckets = engine._buckets
            assert sorted(engine._times) == sorted(buckets)
            assert all(buckets.values())
            assert engine.pending == sum(map(len, buckets.values()))

    def finish(self):
        # A pending stop callback ends run_all() early: go on until drained.
        while True:
            self.log.append(("final", self.engine.run_all()))
            self.observe()
            if not self.engine.pending:
                break
        if isinstance(self.engine, Engine):
            assert not self.engine._times and not self.engine._buckets
        return self.log


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("at"),
            st.integers(min_value=0, max_value=_MAX_DELAY),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("stop"), st.integers(min_value=0, max_value=_MAX_DELAY)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=31)),
        st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=_MAX_DELAY)),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=6)),
    ),
    max_size=40,
)


class TestEngineEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings_execute_identically(self, ops):
        calendar = _Driver(Engine())
        heap = _Driver(HeapEngine())
        for op in ops:
            calendar.apply(op)
            heap.apply(op)
        assert calendar.finish() == heap.finish()
        assert calendar.engine.events_executed == heap.engine.events_executed

    @settings(max_examples=50, deadline=None)
    @given(ops=_OPS, start_time=st.sampled_from([1, 4095, 4096, 10**9 + 7]))
    def test_equivalence_holds_for_tiny_wheels(self, ops, start_time):
        # No wheel any more: the same delays from clocks that do not
        # start at zero, on either side of a multiple of 4 096.
        calendar = _Driver(Engine(start_time=start_time))
        heap = _Driver(HeapEngine(start_time=start_time))
        for op in ops:
            calendar.apply(op)
            heap.apply(op)
        assert calendar.finish() == heap.finish()


# ----------------------------------------------------------------------
# end-to-end: figure-style configs, byte-identical artifacts
# ----------------------------------------------------------------------
def _figure_configs():
    short = dict(
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
    )
    return {
        "fig2-control": ExperimentConfig(
            architecture="traditional-2vc", load=0.8, seed=11, **short
        ),
        "fig3-video": ExperimentConfig(
            architecture="advanced-2vc",
            load=0.7,
            seed=12,
            mix=scaled_video_mix(0.7, time_scale=0.02),
            **short,
        ),
        "fig4-best-effort": ExperimentConfig(
            architecture="simple-2vc", load=1.0, seed=13, **short
        ),
    }


def _run_artifacts(config, engine_factory):
    tracer = PacketTracer(policy="head", rate=1.0, capacity=1 << 14, seed=7)
    result = run_experiment(config, tracer=tracer, engine_factory=engine_factory)
    doc = summarize_run(result).to_dict()
    # Wall-clock is the one legitimately nondeterministic field.
    doc.pop("wall_seconds")
    summary_bytes = json.dumps(doc, sort_keys=True).encode()
    spans = io.StringIO()
    write_spans_jsonl(tracer, spans)
    return summary_bytes, spans.getvalue().encode()


class TestFigureConfigDigests:
    def test_figure_configs_byte_identical_across_engines(self):
        for name, config in _figure_configs().items():
            calendar_summary, calendar_spans = _run_artifacts(config, None)
            heap_summary, heap_spans = _run_artifacts(config, HeapEngine)
            assert calendar_summary == heap_summary, f"{name}: RunSummary diverged"
            assert calendar_spans == heap_spans, f"{name}: span traces diverged"
            assert b'"events_executed"' in calendar_summary
