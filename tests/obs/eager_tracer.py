"""Test oracle: the span tracer as it was before ``finish`` stopped
building what the ring evicts unread.

:class:`EagerTracer` overrides only :meth:`PacketTracer.finish`, with the
body that method had then: decompose the chain -- regrouped into the
``(kind, node, t_ns, ser_ns)`` tuples :func:`decompose_events` takes --
and construct the :class:`SpanTrace` inside the delivering event, reading
the header off the live packet, and put the finished object in the ring.
Everything else (sampling, the open chain on ``pkt.traced`` the observer
extends, the ledger, the exports) is the shipped class, so
``tests/obs/test_tracer_differential.py`` can require byte-identical span
JSONL and equal ``snapshot()`` from the two on the same run.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import class_counter
from repro.obs.tracing import PacketTracer, SpanTrace, decompose_events

__all__ = ["EagerTracer"]


class EagerTracer(PacketTracer):
    def finish(self, pkt: Any, t_ns: int, *, node: str, link: Any, slack_ns: int) -> None:
        chain = pkt.traced
        if not chain:
            return
        self.completed += 1
        missed = slack_ns < 0
        if missed:
            self.misses += 1
        if self.policy == "tail" and not missed:
            return
        scalars = iter(chain + ["deliver", node, t_ns, link.occupancy_ns(pkt.size)])
        events = list(zip(scalars, scalars, scalars, scalars))
        record = SpanTrace(
            uid=pkt.uid,
            flow_id=pkt.flow_id,
            tclass=pkt.tclass,
            vc=pkt.vc,
            src=pkt.src,
            dst=pkt.dst,
            size=pkt.size,
            deadline=pkt.deadline,
            birth_ns=pkt.birth,
            deliver_ns=t_ns,
            slack_ns=slack_ns,
            missed=missed,
            spans=decompose_events(events),
        )
        # Already built, so the ``records`` property has nothing to do.
        if len(self._ring) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest
        self._ring.append(record)
        if self.metrics is not None:
            class_counter(
                self.metrics,
                self._m_retained_by_class,
                pkt.tclass,
                "obs.tracing.class.{tclass}.retained_total",
            ).inc()
