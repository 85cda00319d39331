"""Test oracle: head sampling as it was while every flow kept its own
``RandomStream``.

:class:`StreamTracer` overrides :meth:`PacketTracer.begin` with the body
that method had then: one live stream per flow ever seen, derived from
``(seed, flow_id)``, and one ``random()`` draw per packet.  Its
``__init__`` only adds the ``_streams`` dict that body reads.  The
shipped tracer keeps each flow's decisions as bits instead, so
``tests/obs/test_head_sampling_differential.py`` can require the same
decision on every ``begin`` call from the two.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.tracing import PacketTracer
from repro.sim.rng import RandomStream, local_stream

__all__ = ["StreamTracer"]


class StreamTracer(PacketTracer):
    def __init__(self, **kwargs: Any):
        super().__init__(**kwargs)
        self._streams: Dict[int, RandomStream] = {}

    def begin(self, pkt: Any, t_ns: int, node: str) -> None:
        """Packet born at the source NIC: decide sampling, open the chain."""
        if self.policy == "head":
            stream = self._streams.get(pkt.flow_id)
            if stream is None:
                # Evicting a stream would reset its draw position and
                # perturb that flow's sampling; determinism requires one
                # live stream per flow ever sampled.
                stream = self._streams[pkt.flow_id] = local_stream(
                    f"obs.tracing.flow{pkt.flow_id}", self.seed
                )
            if stream.random() >= self.rate:
                self.unsampled += 1
                return
        self.sampled += 1
        pkt.traced = ["submit", node, t_ns, 0]
