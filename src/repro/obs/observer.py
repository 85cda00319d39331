"""The one observation seam between the network model and its sinks.

``Switch`` and ``Host`` know nothing about *who* is watching: each holds
one ``obs`` handle (``None`` on an unobserved run) and reports the seven
packet-lifecycle points to it, once each, under one ``is not None`` guard
-- host :meth:`~FabricObserver.submit` (which also carries the eligible
stall), :meth:`~FabricObserver.release`, :meth:`~FabricObserver.inject`,
:meth:`~FabricObserver.deliver`; switch :meth:`~FabricObserver.enqueue`
and :meth:`~FabricObserver.forward`.
:class:`FabricObserver` owns everything sink-specific -- instrument names
and buckets, the event ring's topics and payload tuples, the span
tracer's hooks and the ``pkt.traced`` test -- and fans each point out to
whichever of the three sinks the :class:`~repro.network.fabric.Fabric`
was built with (one that is off is ``None``).  Observers only read
simulation state, so no result changes with the sinks on
(``tests/obs/test_observer_equivalence.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.arbiter import MeteredPicker
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    SLACK_BUCKETS_NS,
    WAIT_BUCKETS_NS,
    Counter,
    class_counter,
)

__all__ = ["FabricObserver"]


class FabricObserver:
    """Fan-out of the lifecycle points to registry / event ring / span tracer.

    One instance serves a whole fabric: instruments aggregate fabric-wide
    by name, and ``node`` arguments say which component is reporting.
    """

    def __init__(self, trace, metrics, tracer, n_vcs: int):
        self._metrics = metrics
        self._ring = trace
        self._spans = tracer
        if metrics is None:
            return  # every instrument below is read behind `_metrics is not None`

        def per_vc(mint, name: str, *args, unit: str) -> list:
            return [mint(name.format(vc=vc), *args, unit=unit) for vc in range(n_vcs)]

        counter, histogram = metrics.counter, metrics.histogram
        self._enqueue = per_vc(counter, "network.switch.vc{vc}.enqueue_packets_total", unit="packets")
        self._dequeue = per_vc(counter, "network.switch.vc{vc}.dequeue_packets_total", unit="packets")
        self._order_errors = per_vc(counter, "network.switch.vc{vc}.order_errors_total", unit="packets")
        self._depth = histogram("network.switch.queue_depth_packets", DEPTH_BUCKETS, unit="packets")
        self._wait = histogram("network.switch.arbitration_wait_ns", WAIT_BUCKETS_NS, unit="ns")
        self._slack = per_vc(histogram, "network.host.vc{vc}.delivery_slack_ns", SLACK_BUCKETS_NS, unit="ns")
        self._miss = per_vc(counter, "network.host.vc{vc}.deadline_miss_total", unit="packets")
        self._miss_by_class: Dict[str, Counter] = {}
        self._stalls = counter("network.host.eligible_stalls_total", unit="packets")

    def meter_pickers(self, pickers: List[list]) -> List[list]:
        """A switch's per-(output, VC) pickers, wrapped to count picks and
        grants when a registry is on (unchanged otherwise, so an unmetered
        run never pays the indirection)."""
        if self._metrics is None:
            return pickers
        picks = self._metrics.counter("core.arbiter.picks_total", unit="picks")
        grants = self._metrics.counter("core.arbiter.grants_total", unit="grants")
        return [[MeteredPicker(p, picks, grants) for p in per_out] for per_out in pickers]

    # -- host points ----------------------------------------------------
    def submit(self, pkt: Any, now: int, node: str, stalled: bool) -> None:
        """Packet minted at its source NIC; ``stalled`` = it must wait in
        the eligible-time queue."""
        if self._spans is not None:
            # Sampling decision at birth; winners get pkt.traced set.
            self._spans.begin(pkt, now, node)
        if stalled and self._metrics is not None:
            self._stalls.value += 1

    def release(self, pkt: Any, now: int) -> None:
        """Packet became eligible and moved to its injection queue."""
        # Between ``begin`` and ``finish`` a span event is one append to the
        # tracer's open chain, made here: no tracer call per hop.
        if self._spans is not None and pkt.traced:
            chain = self._spans.live.get(pkt.uid)
            if chain is not None:
                chain.append(("eligible", "", now, 0))

    def inject(self, pkt: Any, now: int, node: str) -> None:
        """Packet won the NIC and is about to start onto the wire."""
        if self._ring is not None:
            self._ring.record(now, "host.inject", node, pkt.uid, pkt.vc)
        if self._spans is not None and pkt.traced:
            chain = self._spans.live.get(pkt.uid)
            if chain is not None:
                chain.append(("inject", "", now, 0))

    def deliver(self, pkt: Any, now: int, node: str, link: Any, slack_ns: int) -> None:
        """Packet consumed by its destination NIC with ``slack_ns`` to
        spare on that NIC's clock (negative = deadline missed)."""
        if self._ring is not None:
            self._ring.record(now, "host.deliver", node, pkt.uid, pkt.vc)
        if self._metrics is not None:
            self._slack[pkt.vc].observe(slack_ns)
            if slack_ns < 0:
                self._miss[pkt.vc].value += 1
                # First miss per class mints (and caches) its counter;
                # every later miss is one dict probe, no formatting.
                class_counter(
                    self._metrics,
                    self._miss_by_class,
                    pkt.tclass,
                    "network.host.class.{tclass}.deadline_miss_total",
                ).value += 1
        if self._spans is not None and pkt.traced:
            self._spans.finish(pkt, now, node=node, link=link, slack_ns=slack_ns)

    # -- switch points --------------------------------------------------
    def enqueue(self, pkt: Any, now: int, node: str, link: Any, out_port: int, depth: int) -> None:
        """Packet fully arrived over ``link`` into a VOQ now ``depth`` deep."""
        if self._metrics is not None:
            pkt.hop_arrival = now
            self._enqueue[pkt.vc].value += 1
            self._depth.observe(depth)
        if self._ring is not None:
            self._ring.record(now, "switch.enqueue", node, link.dst_port, out_port, pkt.uid)
        if self._spans is not None and pkt.traced:
            chain = self._spans.live.get(pkt.uid)
            if chain is not None:
                # ``link`` is the wire the packet just crossed: its occupancy
                # splits the segment into transmit + propagate exactly.
                chain.append(("arrive", node, now, link.occupancy_ns(pkt.size)))

    def forward(self, pkt: Any, now: int, node: str, in_port: int, out_port: int, queue: Any) -> None:
        """Packet won arbitration, left ``queue`` and started draining."""
        if self._metrics is not None:
            self._dequeue[pkt.vc].value += 1
            if pkt.hop_arrival is not None:
                self._wait.observe(now - pkt.hop_arrival)
                pkt.hop_arrival = None
            # Head-of-line order error: the departing packet leaves behind
            # a *smaller*-deadline packet in the same VOQ -- exactly the
            # inversion the take-over structure exists to prevent.
            head = queue.front
            if head is not None and head.deadline < pkt.deadline:
                self._order_errors[pkt.vc].value += 1
        if self._spans is not None and pkt.traced:
            chain = self._spans.live.get(pkt.uid)
            if chain is not None:
                chain.append(("forward", node, now, 0))
        if self._ring is not None:
            self._ring.record(now, "switch.forward", node, in_port, out_port, pkt.uid)
