"""Scripted traffic: write a workload as a plain Python generator.

For scenarios that are awkward to express as stochastic sources --
synchronized bursts, request/response chains, staged phase changes --
a :class:`ScriptedSource` runs a user generator as a simulation process
(:mod:`repro.sim.process`): yield ``(delay_ns, dst, nbytes)`` steps and
the source sleeps, then submits.

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

from typing import Generator, Optional, Tuple

from repro.core.flow import FlowKind
from repro.network.fabric import Fabric
from repro.sim.process import Delay, process
from repro.sim.rng import local_stream
from repro.traffic.base import TrafficSource

__all__ = ["ScriptedSource"]

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
