"""Scripted traffic: write a workload as a plain Python generator.

A test driver, not part of the paper's Table 1 mix: no CLI path and no
experiment runs it, so it lives beside its oracle
(``tests/traffic/scripted_oracle.py``) rather than in ``repro.traffic``.
For scenarios that are awkward to express as stochastic sources --
synchronized bursts, request/response chains, staged phase changes --
a :class:`ScriptedSource` walks a user generator on the same tick as
every other source: yield ``(delay_ns, dst, nbytes)`` steps and the
source sleeps, then submits.  One tick submits the step that is due and
every zero-delay step after it, and sleeps until the next.

Example -- an all-to-one barrier followed by a staggered broadcast::

    # Ride the best-effort VC: nothing is reserved, so no open is refused.
    unreserved = {"vc": 1, "bw_bytes_per_ns": 0.1}

    def barrier_then_fanout(src):
        yield 1_000 * src, 0, 64          # skewed arrival at the root
        yield 50_000, 0, 2048             # barrier payload
        for dst in range(1, 16):
            if dst != src:
                yield 500, dst, 1024      # fan-out, 500 ns apart

    for src in range(1, 16):
        script = barrier_then_fanout(src)
        ScriptedSource(fabric, src, script, flow_kwargs=unreserved).start()

Without ``flow_kwargs`` every destination's flow *reserves* a tenth of
each link it crosses, the source's injection link included: the eleventh
destination from one host (and the eleventh source to one destination)
is refused, and the :class:`~repro.core.admission.AdmissionError` comes
out of ``fabric.run``.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional, Tuple

from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.engine import SimulationError
from repro.sim.rng import local_stream
from repro.traffic.base import TrafficSource

Step = Tuple[int, int, int]  # (delay_ns, dst, nbytes)


def _sleep(delay: int) -> int:
    """``delay`` checked as a step's wait: negative is a :class:`ValueError`,
    anything but an ``int`` is the engine's :class:`SimulationError`."""
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if delay.__class__ is not int:
        raise SimulationError(f"delay must be an int (nanoseconds), got {delay!r}")
    return delay


class ScriptedSource(TrafficSource):
    """Replays a user generator of ``(delay_ns, dst, nbytes)`` steps.

    Flows are opened lazily per destination with ``flow_kwargs``
    (default: a rate flow on the regulated VC that *reserves* 10% of the
    link rate, so one host reaches ten destinations and the eleventh open
    raises :class:`~repro.core.admission.AdmissionError` -- override for
    control/frame/best-effort semantics, or a smaller reservation).

    ``start(at)`` opens the script at ``at`` (now when ``None`` or past);
    ``stop()`` ends it, dropping the step it was sleeping towards.  A bad
    delay raises out of ``fabric.run`` in the tick that read it.
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
        self._at: Optional[int] = None
        #: The script's steps, opened by the first tick after a start.
        self._steps: Optional[Iterator[Step]] = None
        #: ``(dst, nbytes)`` of the step the pending tick submits.
        self._due: Optional[Tuple[int, int]] = None

    def start(self, at: Optional[int] = None) -> None:
        super().start()
        self._at = at
        self._steps = None
        self._due = None

    def _emit(self) -> Optional[int]:
        if self._steps is None:
            self._steps = iter(self._script)
            if self._at is not None and self._at > self.engine.now:
                return _sleep(self._at - self.engine.now)
        elif self._due is not None:
            dst, nbytes = self._due
            self._due = None
            self.fabric.submit(self._flow_to(dst), nbytes)
            self._account(nbytes)
        for delay, dst, nbytes in self._steps:
            if delay:
                delay = _sleep(delay)
                self._due = dst, nbytes
                return delay
            if not self.running:  # the script stopped its own source
                return None
            self.fabric.submit(self._flow_to(dst), nbytes)
            self._account(nbytes)
        return None
