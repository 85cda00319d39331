"""The switch model (Section 4.1).

A combined input/output-queued switch with virtual output queuing: every
input port keeps, per output port and per VC, a queue whose *structure*
is the architecture under study (FIFO, EDF heap, or ordered+take-over
pair).  The crossbar is modelled implicitly: each output port runs an
independent arbiter over the heads of the VOQs destined to it, which for
a crossbar with per-output arbitration is exact.

Scheduling at an output port:

1. VC0 (regulated) has absolute priority over VC1 (best-effort); with
   more VCs (the Section 6 counterfactual), lower index = higher priority.
2. Within a VC, the architecture's picker chooses among queue heads --
   EDF (min deadline) or round-robin.
3. Credit discipline: for the EDF architectures, *only* the chosen
   minimum-deadline candidate is checked for downstream credits (the
   appendix's no-reordering proof needs this); if it does not fit, VC0
   yields the cycle rather than sending a larger-deadline packet.  The
   traditional architecture instead masks credit-less candidates before
   arbitrating, as conventional switches do.
4. If VC0 cannot send (empty or blocked on credits), VC1 may use the
   link -- regulated traffic loses nothing because its own buffer space
   downstream is what it is waiting for.

Input-buffer space is freed (and the upstream credit returned) when the
packet *starts* draining onto the output link; docs/ARCHITECTURE.md
section 4 discusses why (credit RTT parity with hardware) and the
bounded transient over-occupancy it implies.

Switches keep **no per-flow state**: everything here indexes on header
fields (deadline, source route) only.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.architectures import Architecture
from repro.core.invariants import InvariantViolation, invariant
from repro.core.queues import PacketQueue
from repro.network.link import Link
from repro.network.packet import N_VCS, Packet
from repro.sim.engine import Engine

__all__ = ["Switch"]


class _UnusedVOQ(PacketQueue):
    """The slot of a VOQ no packet has needed yet: always empty.

    One shared instance fills every unused slot of every switch, so a
    whole-row reader (``queued_packets``, ``check_backlogged``, a picker
    that polls every head) sees an ordinary empty queue and a cold fabric
    costs what it touches, not ports squared.
    """

    __slots__ = ()

    def push(self, pkt) -> None:
        raise TypeError("the unused-VOQ placeholder holds no packets; go through Switch.voq")

    def head(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


_UNUSED = _UnusedVOQ()


class Switch:
    """One switch node.  Wire links via :meth:`attach_in` / :meth:`attach_out`."""

    __slots__ = (
        "engine",
        "node_id",
        "n_ports",
        "n_vcs",
        "architecture",
        "obs",
        "in_links",
        "out_links",
        "_candidates",
        "_backlogged",
        "_pickers",
        "packets_forwarded",
        "bytes_forwarded",
    )

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        n_ports: int,
        architecture: Architecture,
        n_vcs: int = N_VCS,
        obs=None,
    ):
        if n_ports < 1:
            raise ValueError(f"switch needs >= 1 port, got {n_ports}")
        if n_vcs < 1:
            raise ValueError(f"switch needs >= 1 VC, got {n_vcs}")
        self.engine = engine
        self.node_id = node_id
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.architecture = architecture
        #: The fabric's :class:`~repro.obs.observer.FabricObserver`, or
        #: None when nobody is watching.
        self.obs = obs
        self.in_links: List[Optional[Link]] = [None] * n_ports
        self.out_links: List[Optional[Link]] = [None] * n_ports
        # The VOQs, output-major as the arbiter reads them:
        # _candidates[out_port][vc][in_port].  A slot holds the shared
        # placeholder until the first packet needs it (``voq``): up*/down*
        # routing uses a fraction of a switch's (in, out) pairs.
        self._candidates: List[List[List[PacketQueue]]] = [
            [[_UNUSED] * n_ports for _vc in range(n_vcs)] for _out in range(n_ports)
        ]
        # Per-(output, vc) backlogged list: the input ports whose VOQ is
        # non-empty, so arbitration costs follow the contenders, not the
        # radix.  Appended in ``accept`` when a push lands in an empty
        # queue, removed in ``_try_output`` when a pop empties it.
        self._backlogged: List[List[List[int]]] = [
            [[] for _vc in range(n_vcs)] for _out in range(n_ports)
        ]
        pickers = [
            [architecture.make_picker() for _vc in range(n_vcs)]
            for _out in range(n_ports)
        ]
        self._pickers = pickers if obs is None else obs.meter_pickers(pickers)
        self.packets_forwarded = 0
        self.bytes_forwarded = 0

    def _clock(self) -> int:
        return self.engine.now

    def voq(self, in_port: int, out_port: int, vc: int) -> PacketQueue:
        """The queue from ``in_port`` to ``out_port`` on ``vc``, created
        on first use.  Byte capacity is enforced upstream by the credit
        loop (per input port and VC), so queues are unbounded."""
        row = self._candidates[out_port][vc]
        queue = row[in_port]
        if queue is _UNUSED:
            queue = row[in_port] = self.architecture.make_queue(None)
            # Clock-aware buffer structures (the pipelined heap) need the
            # switch's local cycle counter to model their settle window.
            if hasattr(queue, "now_fn"):
                queue.now_fn = self._clock
        return queue

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_in(self, port: int, link: Link) -> None:
        if self.in_links[port] is not None:
            raise ValueError(f"{self.node_id} input port {port} already wired")
        self.in_links[port] = link
        link.receiver = self

    def attach_out(self, port: int, link: Link) -> None:
        if self.out_links[port] is not None:
            raise ValueError(f"{self.node_id} output port {port} already wired")
        self.out_links[port] = link
        link.sender = self

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def accept(self, pkt: Packet, link: Link) -> None:
        """A packet has fully arrived at one of our input ports."""
        in_port = link.dst_port
        try:
            out_port = pkt.path[pkt.hop]
        except IndexError:
            raise ValueError(
                f"{self.node_id}: source route {pkt.path!r} is exhausted at "
                f"hop {pkt.hop} (packet {pkt.uid})"
            ) from None
        pkt.hop += 1
        if not 0 <= out_port < self.n_ports:
            raise ValueError(
                f"{self.node_id}: source route names output port {out_port} "
                f"but switch has {self.n_ports} ports"
            )
        queue = self._candidates[out_port][pkt.vc][in_port]
        if queue is _UNUSED:
            queue = self.voq(in_port, out_port, pkt.vc)
        queue.push(pkt)
        depth = len(queue)
        if depth == 1:
            self._backlogged[out_port][pkt.vc].append(in_port)
        if self.obs is not None:
            self.obs.enqueue(pkt, self.engine.now, self.node_id, link, out_port, depth)
        out_link = self.out_links[out_port]
        if out_link is not None and not out_link.busy:
            self._try_output(out_port)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def pull(self, link: Link) -> None:
        """Output link freed or received credits: re-arbitrate that port."""
        self._try_output(link.src_port)

    def _try_output(self, out_port: int) -> None:
        out_link = self.out_links[out_port]
        if out_link is None or out_link.busy:
            return
        masking = self.architecture.credit_masking
        credits = out_link.channel.credits
        backlogged_by_vc = self._backlogged[out_port]
        queues_by_vc = self._candidates[out_port]
        pickers_by_vc = self._pickers[out_port]
        for vc in range(self.n_vcs):  # ascending index = descending priority
            backlogged = backlogged_by_vc[vc]
            if not backlogged:
                continue
            queues = queues_by_vc[vc]
            picker = pickers_by_vc[vc]
            if masking:
                # The closure must capture this iteration's (credits, vc):
                # hoisting it would freeze the VC and caching predicates
                # per port would couple the arbiter to link rewiring.
                # Masking architectures only; the common path never pays.
                index = picker.pick(queues, backlogged, lambda head: credits[vc] >= head.size)  # simlint: allow-hot-loop-allocation
            else:
                index = picker.pick(queues, backlogged)
                if index is not None and queues[index].head().size > credits[vc]:
                    # The appendix's rule: the chosen candidate (and only
                    # it) is checked for credits; nothing else on this VC
                    # may overtake it.
                    index = None
            if index is None:
                continue
            queue = queues[index]
            pkt = queue.pop()
            if len(queue) == 0:
                backlogged.remove(index)
            picker.granted(index)
            out_link.transmit(pkt)
            self.packets_forwarded += 1
            self.bytes_forwarded += pkt.size
            if self.obs is not None:
                # After transmit: an observer sees the output link already busy.
                self.obs.forward(pkt, self.engine.now, self.node_id, index, out_link.src_port, queue)
            # Input buffer space frees as the packet drains through the
            # crossbar; the credit goes back when draining *starts* (the
            # upstream cannot land a new packet here in less than one
            # serialization anyway, so transient over-occupancy is bounded
            # by one MTU -- see the credit-conservation tests).
            in_link = self.in_links[index]
            if in_link is None:
                raise InvariantViolation("packet came from an unwired input port")
            in_link.return_credit(pkt.vc, pkt.size)
            return

    # ------------------------------------------------------------------
    # introspection (tests, metrics)
    # ------------------------------------------------------------------
    def queued_packets(self) -> int:
        return sum(
            len(queue)
            for per_out in self._candidates
            for queues in per_out
            for queue in queues
        )

    def queued_bytes(self, in_port: int, vc: int) -> int:
        """Occupancy of one input port's VC buffer (across all VOQs)."""
        return sum(per_out[vc][in_port].used_bytes for per_out in self._candidates)

    def voq_count(self) -> int:
        """How many VOQs exist: the (in, out, VC) slots :meth:`voq` has
        been asked for so far, by an arriving packet or anyone else."""
        return sum(
            queue is not _UNUSED
            for per_out in self._candidates
            for queues in per_out
            for queue in queues
        )

    def check_backlogged(self) -> None:
        """Raise :class:`InvariantViolation` unless every (output, VC)
        backlogged list holds exactly the inputs whose VOQ is non-empty,
        each once."""
        listed = [sorted(inputs) for per_out in self._backlogged for inputs in per_out]
        nonempty = [
            [i for i, queue in enumerate(queues) if len(queue) > 0]
            for per_out in self._candidates
            for queues in per_out
        ]
        invariant(
            listed == nonempty,
            "%s: backlogged lists %r but non-empty inputs %r (output-major, then VC)",
            self.node_id, listed, nonempty,
        )

    def takeover_hits(self) -> int:
        """Arrivals that landed in a take-over (U) queue, summed over all
        VOQs.  Zero for architectures without take-over queues."""
        return sum(
            getattr(queue, "takeover_hits", 0)
            for per_out in self._candidates
            for queues in per_out
            for queue in queues
        )
