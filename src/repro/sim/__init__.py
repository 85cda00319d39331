"""Discrete-event simulation substrate.

This package implements the event-driven simulation kernel that the rest
of the library runs on.  The paper's evaluation is simulation-only, so the
kernel's semantics (integer-nanosecond timestamps, deterministic FIFO
tie-breaking, explicit random-number streams) are the foundation of every
reproduced figure.

Public surface:

- :class:`~repro.sim.engine.Engine` -- the event loop (one list per
  pending timestamp, a min-heap of the timestamps); the only engine in
  ``src/``.  Its binary-heap test oracle is ``tests/sim/heap_engine.py``.
- :class:`~repro.sim.engine.EventHandle` -- cancellable scheduled callback.
- :class:`~repro.sim.rng.RandomStreams` -- named, reproducible RNG streams.
- :mod:`~repro.sim.units` -- time and bandwidth unit helpers.
- :class:`~repro.sim.monitor.Trace` -- structured event tracing.

Everything that runs on the engine is a plain callback, traffic sources
included: each re-arms its own tick (:class:`repro.traffic.base.TrafficSource`).
"""

from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.monitor import Trace, TraceRecord
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim import units

__all__ = [
    "Engine",
    "EventHandle",
    "RandomStreams",
    "SimulationError",
    "Trace",
    "TraceRecord",
    "derive_seed",
    "units",
]
