"""Common machinery for traffic sources.

A :class:`TrafficSource` owns one or more flows on a fabric and injects
application messages through them via one self-rescheduling engine
callback, the source's tick -- every source, scripted ones included, runs
on it.  Subclasses implement :meth:`_emit`, which submits message(s) for
"now" and returns the delay until the next emission (or ``None`` to stop).

Sources track offered load so experiments can verify the generator is
actually producing the configured rate (the workload tests do).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.flow import FlowState
from repro.network.fabric import Fabric
from repro.sim.rng import RandomStream

__all__ = ["TrafficSource"]


class TrafficSource:
    """Base class for message generators attached to one source host."""

    #: Set by sources that open a flow per destination (:meth:`_flow_to`):
    #: the class and ``open_flow`` keywords of those flows and, when they
    #: share one virtual clock (a per-host record), that stamper.
    tclass: str
    _flow_kwargs: dict
    stamper = None

    def __init__(self, fabric: Fabric, src: int, name: str, rng: RandomStream):
        n_hosts = fabric.topology.n_hosts
        if not 0 <= src < n_hosts:
            raise ValueError(f"source host {src} out of range")
        self._n_hosts = n_hosts
        self.fabric = fabric
        self.engine = fabric.engine
        self.src = src
        self.name = name
        self.rng = rng
        self.running = False
        self.messages_generated = 0
        self.bytes_generated = 0
        self._flows: Dict[int, FlowState] = {}
        #: Which tick chain is live: every tick carries the value it was
        #: started under and :meth:`stop` bumps it, so a tick still pending
        #: from before a ``stop(); start()`` fires as a no-op.
        self._chain = 0

    # ------------------------------------------------------------------
    def start(self, at: Optional[int] = None) -> None:
        """Begin generating at ``at`` (default: now); a second start while
        running raises :class:`RuntimeError`."""
        if self.running:
            raise RuntimeError(f"{self.name} already started")
        self.running = True
        when = self.engine.now if at is None else at
        self.engine.at(when, self._tick, self._chain)

    def stop(self) -> None:
        self.running = False
        self._chain += 1

    # ------------------------------------------------------------------
    def _tick(self, chain: int) -> None:
        if chain != self._chain:
            return
        delay = self._emit()
        if delay is None:
            self.running = False
            return
        self.engine.after(max(1, round(delay)), self._tick, chain)

    def _emit(self) -> Optional[float]:
        """Submit message(s) now; return ns until the next emission."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _flow_to(self, dst: int) -> FlowState:
        """This source's flow to ``dst``, opened on first use."""
        flow = self._flows.get(dst)
        if flow is None:
            flow = self._flows[dst] = self.fabric.open_flow(
                self.src, dst, self.tclass, stamper=self.stamper, **self._flow_kwargs
            )
        return flow

    def _pick_dst(self) -> int:
        """A destination uniform over the other hosts."""
        dst = self.rng.randrange(self._n_hosts - 1)
        return dst if dst < self.src else dst + 1

    def _account(self, nbytes: int) -> None:
        self.messages_generated += 1
        self.bytes_generated += nbytes

    def offered_bytes_per_ns(self, elapsed_ns: int) -> float:
        """Measured offered load since time zero (for calibration tests)."""
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes_generated / elapsed_ns
