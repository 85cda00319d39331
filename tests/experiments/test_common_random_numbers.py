"""Every architecture is offered the same traffic at a given seed.

Each claim the paper makes compares architectures (Simple/Ideal,
Advanced/Ideal, Traditional/EDF, BE:BG), and a comparison is *paired* --
common random numbers -- only while the offered traffic does not depend
on the architecture.  Nothing in a run enforces that: a source that drew
from an architecture-dependent stream, or reacted to backpressure, would
silently unpair every comparison.  This pins it: on ``tiny`` at seed 3
(50 + 200 us, the Table 1 mix at load 1.0), the messages submitted --
time, source, destination, class, size -- hash the same under the four
architectures and the pipelined-heap oracle of ``ideal``
(``tests/core/pipelined_heap.py``, whose paired comparison with ``ideal``
rests on this).
"""

import hashlib

from repro.core.architectures import ARCHITECTURES
from repro.experiments.config import ExperimentConfig
from repro.experiments.presets import make_topology
from repro.network.fabric import Fabric
from repro.sim import units
from repro.sim.rng import RandomStreams
from repro.traffic.mix import build_mix
from repro.traffic.trace import TraceRecorder
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for


def offered_traffic(monkeypatch, architecture: str):
    """``(messages, sha256 over them)`` submitted in one run: the
    runner's steps, with a recorder on ``fabric.submit`` before any
    source exists."""
    engine_factory = engine_factory_for(monkeypatch, architecture)
    config = ExperimentConfig(
        architecture=architecture,
        topology="tiny",
        seed=3,
        warmup_ns=50 * units.US,
        measure_ns=200 * units.US,
    )
    fabric = Fabric(
        make_topology(config.topology),
        ARCHITECTURES[architecture],
        config.params,
        engine=engine_factory(),
    )
    recorder = TraceRecorder()
    recorder.attach(fabric)
    mix = build_mix(fabric, RandomStreams(config.seed), config.mix_config)
    mix.start()
    fabric.run(until=config.end_ns)
    mix.stop()
    digest = hashlib.sha256(repr(recorder.records).encode()).hexdigest()
    return len(recorder.records), digest


def test_every_architecture_is_offered_the_same_messages(monkeypatch):
    offered = {name: offered_traffic(monkeypatch, name) for name in ARCHITECTURE_NAMES}
    assert len(offered) == 5
    assert len(set(offered.values())) == 1, offered
    messages, _digest = offered["advanced-2vc"]
    assert messages == 5_428
