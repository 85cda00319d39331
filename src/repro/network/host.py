"""The end-host network interface (Section 3.2's host organization).

All per-flow intelligence lives here, not in the switches:

- messages from the application are segmented into MTU-sized packets and
  **stamped** with deadlines by the flow's virtual-clock stamper;
- regulated packets optionally wait in an **eligible-time queue** (sorted
  by eligible time); once eligible they move to the **injection queue**
  sorted by ascending deadline -- this sortedness at the source is the
  assumption that lets switches get away with FIFO queues;
- best-effort packets sit in their own deadline-sorted queue on VC1 and
  are injected "only when the link is available, there are credits, and
  the regulated-traffic VC has no packets ready to inject";
- under the *Traditional* architecture hosts do none of this: both VCs
  inject in plain FIFO order (deadlines are still stamped, but nothing
  reads them).

The receive side models an infinite-sink NIC: a delivered packet is
consumed immediately and its buffer credit returned at once.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.core.architectures import Architecture
from repro.core.eligible import EligiblePolicy
from repro.core.flow import FlowState
from repro.core.invariants import invariant
from repro.core.queues import EDFHeapQueue, FifoQueue, PacketQueue
from repro.network.link import Link
from repro.network.packet import N_VCS, Packet, PacketFactory, VC_REGULATED
from repro.sim.engine import Engine, EventHandle

__all__ = ["Host"]

DeliveryCallback = Callable[[Packet, int], None]


class Host:
    """One end host: NIC send queues, deadline stamping, and the sink side."""

    __slots__ = (
        "engine",
        "node_id",
        "index",
        "architecture",
        "eligible_policy",
        "mtu",
        "obs",
        "out_link",
        "in_link",
        "clock_offset",
        "on_delivery",
        "_pending",
        "_ready",
        "_wake",
        "_release_cb",
        "_packets",
        "packets_submitted",
        "bytes_submitted",
        "packets_injected",
        "bytes_injected",
        "packets_received",
        "bytes_received",
    )

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        index: int,
        architecture: Architecture,
        *,
        eligible_policy: Optional[EligiblePolicy] = None,
        mtu: int = 2048,
        on_delivery: Optional[DeliveryCallback] = None,
        clock_offset: int = 0,
        n_vcs: int = N_VCS,
        obs=None,
        packet_factory: Optional[PacketFactory] = None,
    ):
        if mtu <= 0:
            raise ValueError(f"MTU must be positive, got {mtu}")
        self.engine = engine
        self.node_id = node_id
        self.index = index
        self.architecture = architecture
        self.eligible_policy = eligible_policy or EligiblePolicy()
        self.mtu = mtu
        #: The fabric's :class:`~repro.obs.observer.FabricObserver`, or
        #: None when nobody is watching.
        self.obs = obs
        self.out_link: Optional[Link] = None
        self.in_link: Optional[Link] = None
        self.on_delivery = on_delivery
        #: Section 3.3: this NIC's free-running clock reads
        #: ``engine.now + clock_offset``; deadlines and eligible times are
        #: computed on that local clock (and re-based by TTD-mode links).
        self.clock_offset = clock_offset
        #: regulated packets not yet eligible: heap of (eligible, uid, pkt)
        self._pending: List[tuple[int, int, Packet]] = []
        queue_cls = EDFHeapQueue if architecture.host_edf else FifoQueue
        #: per-VC injection queues, deadline-sorted for the EDF architectures
        self._ready: List[PacketQueue] = [queue_cls() for _ in range(n_vcs)]
        self._wake: Optional[EventHandle] = None
        # Pre-bound wake callback (SIM303 pattern by hand): binding once
        # here keeps the re-arm path free of per-call method binds.
        self._release_cb = self._release_eligible
        # Fabric-shared uid minting (and optional pooling); a private
        # factory keeps standalone hosts working in tests.
        self._packets = packet_factory if packet_factory is not None else PacketFactory()
        self.packets_submitted = 0
        self.bytes_submitted = 0
        self.packets_injected = 0
        self.bytes_injected = 0
        self.packets_received = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_out(self, link: Link) -> None:
        if self.out_link is not None:
            raise ValueError(f"{self.node_id} already has an output link")
        self.out_link = link
        link.sender = self
        link.backlog = sum(len(ready) for ready in self._ready)

    def attach_in(self, link: Link) -> None:
        if self.in_link is not None:
            raise ValueError(f"{self.node_id} already has an input link")
        self.in_link = link
        link.receiver = self

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def submit_message(self, flow: FlowState, message_bytes: int) -> List[Packet]:
        """Segment, stamp, and enqueue one application message on ``flow``.

        The message is cut into MTU-sized packets, and the flow's stamper
        stamps all of them in one call.  Returns the packets created
        (mainly for tests; the caller normally ignores them).
        """
        spec = flow.spec
        if spec.src != self.index:
            raise ValueError(
                f"flow {spec.flow_id} originates at host {spec.src}, "
                f"not at {self.node_id}"
            )
        # Whole bytes, by identity (as the engine checks times): a float
        # size would leak into packet sizes, credits and serialization.
        if message_bytes.__class__ is not int or message_bytes <= 0:
            raise ValueError(f"message size must be a positive int, got {message_bytes!r}")
        true_now = self.engine.now
        # All deadline arithmetic happens on this NIC's local clock; with
        # zero skew (the default) local time == simulation time.
        now = true_now + self.clock_offset
        mtu = self.mtu
        full, rest = divmod(message_bytes, mtu)
        sizes = [mtu] * full
        if rest:
            sizes.append(rest)
        parts = len(sizes)
        deadlines = flow.stamper.stamp_message(now, sizes)

        msg_id = flow.next_msg
        flow.next_msg = msg_id + 1
        seq = flow.next_seq
        flow.next_seq = seq + parts
        # The eligible time is max(deadline - offset, now), the offset read
        # once per message: None = no smoothing, eligible at once.
        offset = (
            self.eligible_policy.offset_ns
            if spec.smoothing and self.architecture.host_edf
            else None
        )
        vc = spec.vc
        regulated = vc == VC_REGULATED  # only regulated packets wait to be eligible
        ready = self._ready[vc]
        pending = self._pending
        mint = self._packets.mint
        obs = self.obs
        flow_id, src, dst, tclass, path = spec.flow_id, spec.src, spec.dst, spec.tclass, flow.path
        packets: List[Packet] = []
        released = 0
        for part in range(parts):
            deadline = deadlines[part]
            if offset is None:
                eligible = now
            else:
                eligible = deadline - offset
                if not eligible > now:
                    eligible = now
            # The allocation IS the workload here: submit_message exists to
            # mint the packets being injected, one per message part.  In
            # Packet's field order, positionally (no keyword matching per
            # packet); birth is in simulation time, like every statistic.
            pkt = mint(  # simlint: allow-hot-loop-allocation
                flow_id, seq + part, src, dst, sizes[part], vc, tclass,
                deadline, eligible, path, msg_id, part, parts, true_now,
            )
            packets.append(pkt)
            stalled = regulated and eligible > now
            if obs is not None:
                obs.submit(pkt, true_now, self.node_id, stalled)
            if stalled:
                heapq.heappush(pending, (eligible, pkt.uid, pkt))
            else:
                ready.push(pkt)
                released += 1
        # Counted per message: the parts add up to ``message_bytes``.
        self.packets_submitted += parts
        self.bytes_submitted += message_bytes
        flow.packets_sent += parts
        flow.bytes_sent += message_bytes
        if pending:
            self._arm_wake()
        link = self.out_link
        if link is not None:
            link.backlog += released
            if not link.busy:
                self._try_inject(link)
        return packets

    def _arm_wake(self) -> None:
        """Keep a timer on the earliest not-yet-eligible packet.

        Pending eligible times are on the local clock; the engine timer is
        set in simulation time (``local - offset``).
        """
        if not self._pending:
            return
        head_time = max(self.engine.now, self._pending[0][0] - self.clock_offset)
        if self._wake is not None and not self._wake.cancelled:
            if self._wake.time <= head_time:
                return
            self._wake.cancel()
        self._wake = self.engine.at_cancellable(head_time, self._release_cb)

    def _release_eligible(self) -> None:
        now = self.engine.now + self.clock_offset  # local clock
        pending = self._pending
        moved = 0
        while pending and pending[0][0] <= now:
            _, _, pkt = heapq.heappop(pending)
            if self.obs is not None:
                self.obs.release(pkt, self.engine.now)
            self._ready[pkt.vc].push(pkt)
            moved += 1
        self._wake = None
        self._arm_wake()
        link = self.out_link
        if moved and link is not None:
            link.backlog += moved
            if not link.busy:
                self._try_inject(link)

    def _try_inject(self, link: Optional[Link]) -> None:
        """Start the first sendable packet on ``link``, this NIC's output.

        This is also :meth:`pull`: an output link that freed or got credits
        back re-polls the NIC straight into its injector -- only while
        ``link.backlog`` says a ready queue holds a packet.
        """
        if link is None or link.busy:
            return
        # Section 3.2: lower-index VCs have absolute priority -- a later VC
        # goes out only when every higher-priority VC has no packet it can
        # send.  A head blocked on *credits* is waiting for its own
        # downstream buffer, not for the link, so the next VC may use the
        # wire meanwhile (work conservation); within a VC the blocked
        # minimum-deadline head still bars every other packet, which is
        # the credit rule the appendix's proof requires.
        credits = link.channel.credits
        for ready in self._ready:
            head = ready.front
            if head is not None and credits[head.vc] >= head.size:
                pkt = ready.pop()
                link.backlog -= 1
                pkt.inject = self.engine.now
                self.packets_injected += 1
                self.bytes_injected += pkt.size
                if self.obs is not None:
                    # Before transmit: an observer sees the wire still idle.
                    self.obs.inject(pkt, pkt.inject, self.node_id)
                link.transmit(pkt)
                return

    #: The link's re-poll (``sender.pull(link)``) is the injection itself.
    pull = _try_inject

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def accept(self, pkt: Packet, link: Link) -> None:
        if pkt.dst != self.index:
            raise ValueError(
                f"{self.node_id} received packet for host {pkt.dst}: routing bug"
            )
        now = self.engine.now
        pkt.deliver = now
        self.packets_received += 1
        self.bytes_received += pkt.size
        # Infinite-sink NIC: consume immediately, return the credit at once.
        link.return_credit(pkt.vc, pkt.size)
        if self.obs is not None:
            # Slack on this NIC's local clock: TTD-mode links re-base the
            # deadline onto it, and with zero skew local == simulation time.
            slack_ns = pkt.deadline - (now + self.clock_offset)
            self.obs.deliver(pkt, now, self.node_id, link, slack_ns)
        if self.on_delivery is not None:
            self.on_delivery(pkt, now)
        # Last touch: every observer above has run, no queue holds the
        # packet -- its storage may be recycled if the fabric opted into
        # pooling.
        packets = self._packets
        if packets.pooling:
            packets.recycle(pkt)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queued_packets(self) -> int:
        return len(self._pending) + sum(len(q) for q in self._ready)

    def ready_packets(self, vc: int) -> int:
        return len(self._ready[vc])

    def pending_packets(self) -> int:
        return len(self._pending)

    def check_backlog(self) -> None:
        """Raise :class:`InvariantViolation` unless the output link's
        ``backlog`` is the number of packets in the ready queues."""
        link = self.out_link
        if link is None:
            return
        ready = sum(len(queue) for queue in self._ready)
        invariant(
            link.backlog == ready,
            "%s: output link counts a backlog of %d but the ready queues hold %d",
            self.node_id, link.backlog, ready,
        )
