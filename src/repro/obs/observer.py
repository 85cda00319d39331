"""The one observation seam between the network model and its sinks.

``Switch`` and ``Host`` know nothing about *who* is watching: each holds
one ``obs`` handle (``None`` on an unobserved run) and reports the seven
packet-lifecycle points to it, once each, under one ``is not None`` guard
-- host ``submit`` (which also carries the eligible stall), ``release``,
``inject``, ``deliver``; switch ``enqueue`` and ``forward``.
:class:`FabricObserver` owns everything sink-specific -- instrument names
and buckets, the event ring's topics and payload tuples, the span
tracer's hooks and the ``pkt.traced`` test.  It binds each point once, at
construction, to a function that holds the instruments, the ring's
``deque.append`` and the tracer hooks of the sinks the
:class:`~repro.network.fabric.Fabric` was built with as locals, and
touches no sink that is off.  Observers only read simulation state, so
no result changes with the sinks on
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
    ``submit``, ``release``, ``inject``, ``deliver``, ``enqueue`` and
    ``forward`` are plain functions bound in :meth:`__init__`; a sink that
    is off is a ``None`` local its block is skipped on.
    """

    def __init__(self, trace, metrics, tracer, n_vcs: int):
        self._metrics = metrics
        # The event ring, written without a ``Trace.record`` frame: its
        # rule (count an eviction when full, append one flat tuple) is
        # spelled out at the four points that record.
        ring = append = capacity = None
        if trace is not None:
            ring = trace._kept
            append, capacity = ring.append, trace.capacity
        begin = finish = None
        if tracer is not None:
            begin, finish = tracer.begin, tracer.finish
        enqueued = dequeued = order_errors = missed = stalls = None
        observe_depth = observe_wait = observe_slack = None
        missed_by_class: Dict[str, Counter] = {}
        if metrics is not None:

            def per_vc(mint, name: str, *args, unit: str) -> list:
                return [mint(name.format(vc=vc), *args, unit=unit) for vc in range(n_vcs)]

            counter, histogram = metrics.counter, metrics.histogram
            enqueued = per_vc(counter, "network.switch.vc{vc}.enqueue_packets_total", unit="packets")
            dequeued = per_vc(counter, "network.switch.vc{vc}.dequeue_packets_total", unit="packets")
            order_errors = per_vc(counter, "network.switch.vc{vc}.order_errors_total", unit="packets")
            observe_depth = histogram("network.switch.queue_depth_packets", DEPTH_BUCKETS, unit="packets").observe
            observe_wait = histogram("network.switch.arbitration_wait_ns", WAIT_BUCKETS_NS, unit="ns").observe
            observe_slack = [
                h.observe
                for h in per_vc(histogram, "network.host.vc{vc}.delivery_slack_ns", SLACK_BUCKETS_NS, unit="ns")
            ]
            missed = per_vc(counter, "network.host.vc{vc}.deadline_miss_total", unit="packets")
            stalls = counter("network.host.eligible_stalls_total", unit="packets")

        # -- host points ------------------------------------------------
        def submit(pkt: Any, now: int, node: str, stalled: bool) -> None:
            """Packet minted at its source NIC; ``stalled`` = it must wait
            in the eligible-time queue."""
            if tracer is not None:
                begin(pkt, now, node)  # sampling decision; winners get a chain
            if stalled and metrics is not None:
                stalls.value += 1

        def release(pkt: Any, now: int) -> None:
            """Packet became eligible and moved to its injection queue."""
            # Between ``begin`` and ``finish`` a hop extends the open chain
            # by four scalars, here: no tracer call per hop.
            if tracer is not None:
                chain = pkt.traced
                if chain:
                    chain += ("eligible", "", now, 0)

        def inject(pkt: Any, now: int, node: str) -> None:
            """Packet won the NIC and is about to start onto the wire."""
            if ring is not None:
                if len(ring) == capacity:
                    trace.dropped += 1  # deque(maxlen=...) evicts the oldest
                append((now, "host.inject", node, pkt.uid, pkt.vc))
            if tracer is not None:
                chain = pkt.traced
                if chain:
                    chain += ("inject", "", now, 0)

        def deliver(pkt: Any, now: int, node: str, link: Any, slack_ns: int) -> None:
            """Packet consumed by its destination NIC with ``slack_ns`` to
            spare on that NIC's clock (negative = deadline missed)."""
            if ring is not None:
                if len(ring) == capacity:
                    trace.dropped += 1
                append((now, "host.deliver", node, pkt.uid, pkt.vc))
            if metrics is not None:
                observe_slack[pkt.vc](slack_ns)
                if slack_ns < 0:
                    missed[pkt.vc].value += 1
                    # First miss per class mints (and caches) its counter;
                    # every later miss is one dict probe, no formatting.
                    class_counter(
                        metrics,
                        missed_by_class,
                        pkt.tclass,
                        "network.host.class.{tclass}.deadline_miss_total",
                    ).value += 1
            if tracer is not None and pkt.traced:
                finish(pkt, now, node=node, link=link, slack_ns=slack_ns)

        # -- switch points ----------------------------------------------
        def enqueue(pkt: Any, now: int, node: str, link: Any, out_port: int, depth: int) -> None:
            """Packet fully arrived over ``link`` into a VOQ now ``depth`` deep."""
            if metrics is not None:
                pkt.hop_arrival = now
                enqueued[pkt.vc].value += 1
                observe_depth(depth)
            if ring is not None:
                if len(ring) == capacity:
                    trace.dropped += 1
                append((now, "switch.enqueue", node, link.dst_port, out_port, pkt.uid))
            if tracer is not None:
                chain = pkt.traced
                if chain:
                    # ``link`` is the wire the packet just crossed: its
                    # occupancy splits the segment into transmit + propagate.
                    chain += ("arrive", node, now, link.occupancy_ns(pkt.size))

        def forward(pkt: Any, now: int, node: str, in_port: int, out_port: int, queue: Any) -> None:
            """Packet won arbitration, left ``queue`` and started draining."""
            if metrics is not None:
                dequeued[pkt.vc].value += 1
                if pkt.hop_arrival is not None:
                    observe_wait(now - pkt.hop_arrival)
                    pkt.hop_arrival = None
                # Head-of-line order error: the departing packet leaves
                # behind a *smaller*-deadline packet in the same VOQ --
                # exactly the inversion the take-over structure prevents.
                head = queue.front
                if head is not None and head.deadline < pkt.deadline:
                    order_errors[pkt.vc].value += 1
            if tracer is not None:
                chain = pkt.traced
                if chain:
                    chain += ("forward", node, now, 0)
            if ring is not None:
                if len(ring) == capacity:
                    trace.dropped += 1
                append((now, "switch.forward", node, in_port, out_port, pkt.uid))

        self.submit = submit
        self.release = release
        self.inject = inject
        self.deliver = deliver
        self.enqueue = enqueue
        self.forward = forward

    def meter_pickers(self, pickers: List[list]) -> List[list]:
        """A switch's per-(output, VC) pickers, wrapped to count picks when
        a registry is on (unchanged otherwise, so an unmetered run never
        pays the indirection).  Grants are synced from the switches'
        ``packets_forwarded`` by
        :func:`~repro.obs.telemetry.sync_component_totals`."""
        if self._metrics is None:
            return pickers
        picks = self._metrics.counter("core.arbiter.picks_total", unit="picks")
        return [[MeteredPicker(p, picks) for p in per_out] for per_out in pickers]
