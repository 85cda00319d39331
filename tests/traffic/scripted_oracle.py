"""Differential oracle: the coroutine process layer and the
:class:`ScriptedSource` that ran on it.

``repro.traffic.scripted.ScriptedSource`` now runs on the self-rescheduling
tick every other :class:`~repro.traffic.base.TrafficSource` uses, and the
generator-process layer it was the only user of (``Delay`` / ``Signal`` /
``Process``) left ``src/``.  Both are kept here verbatim:
``tests/traffic/test_scripted.py`` replays random scripts through this
source and the production one and requires the same submissions, state
and failures, and ``tests/sim/test_process.py`` still pins the process
layer's own semantics.

A process is a generator that yields:

- :class:`Delay` -- suspend for a number of nanoseconds;
- :class:`Signal` -- suspend until another process triggers the signal.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import local_stream
from repro.traffic.base import TrafficSource


class Delay:
    """Yielded by a process to sleep for ``ns`` nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError(f"delay must be >= 0, got {ns}")
        self.ns = ns


class Signal:
    """A broadcast wake-up point.

    Processes yield the signal to wait; :meth:`trigger` wakes *all* current
    waiters, passing them ``value`` as the result of their ``yield``.
    Waiters registered after the trigger wait for the next one (no latching).
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: list["Process"] = []

    def trigger(self, value: Any = None) -> int:
        """Wake all waiting processes; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._resume_soon(value)
        return len(waiters)

    def _wait(self, proc: "Process") -> None:
        self._waiters.append(proc)


class Process:
    """A running generator bound to an engine.  Create via :func:`process`."""

    __slots__ = ("engine", "_gen", "alive", "value", "_done_signal")

    def __init__(self, engine: Engine, gen: Generator[Any, Any, Any]):
        self.engine = engine
        self._gen = gen
        self.alive = True
        #: Return value of the generator once finished.
        self.value: Any = None
        self._done_signal: Optional[Signal] = None

    @property
    def done(self) -> Signal:
        """Signal triggered (with the return value) when the process ends."""
        if self._done_signal is None:
            self._done_signal = Signal()
        return self._done_signal

    def _resume_soon(self, value: Any) -> None:
        self.engine.after(0, self._step, value)

    def _step(self, send_value: Any) -> None:
        if not self.alive:
            return
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.value = stop.value
            if self._done_signal is not None:
                self._done_signal.trigger(stop.value)
            return
        if isinstance(yielded, Delay):
            self.engine.after(yielded.ns, self._step, None)
        elif isinstance(yielded, Signal):
            yielded._wait(self)
        elif isinstance(yielded, Process):
            yielded.done._wait(self)
        else:
            self.alive = False
            raise SimulationError(
                f"process yielded {yielded!r}; expected Delay, Signal, or Process"
            )

    def kill(self) -> None:
        """Stop the process permanently.  Pending wake-ups become no-ops."""
        self.alive = False
        self._gen.close()


def process(engine: Engine, gen: Generator[Any, Any, Any]) -> Process:
    """Start ``gen`` as a process; its first step runs at the current time."""
    proc = Process(engine, gen)
    proc._resume_soon(None)
    return proc


Step = Tuple[int, int, int]  # (delay_ns, dst, nbytes)


class ScriptedSource(TrafficSource):
    """Replays a user generator of ``(delay_ns, dst, nbytes)`` steps.

    Flows are opened lazily per destination with ``flow_kwargs``
    (default: a rate flow on the regulated VC that *reserves* 10% of the
    link rate, so one host reaches ten destinations and the eleventh open
    raises :class:`~repro.core.admission.AdmissionError` -- override for
    control/frame/best-effort semantics, or a smaller reservation).
    """

    def __init__(
        self,
        fabric: Fabric,
        src: int,
        script: Generator[Step, None, None],
        *,
        tclass: str = "scripted",
        flow_kwargs: Optional[dict] = None,
    ):
        super().__init__(fabric, src, f"scripted@h{src}", local_stream(f"traffic.scripted.h{src}"))
        self._script = script
        self.tclass = tclass
        self._flow_kwargs = flow_kwargs or {
            "kind": FlowKind.RATE,
            "bw_bytes_per_ns": 0.1 * fabric.params.bytes_per_ns,
        }
        self._process = None

    def start(self, at: Optional[int] = None) -> None:
        if self.running:
            raise RuntimeError(f"{self.name} already started")
        self.running = True

        def runner():
            if at is not None and at > self.engine.now:
                yield Delay(at - self.engine.now)
            for delay, dst, nbytes in self._script:
                if delay:
                    yield Delay(delay)
                if not self.running:
                    return
                self.fabric.submit(self._flow_to(dst), nbytes)
                self._account(nbytes)
            self.running = False

        self._process = process(self.engine, runner())

    def stop(self) -> None:
        self.running = False
        if self._process is not None and self._process.alive:
            self._process.kill()
