"""Point-to-point links with credit-based flow control.

High-speed interconnects are lossless: a sender transmits a packet on a
VC only when the receiver's input buffer for that VC is guaranteed to
have room, tracked by a per-VC credit counter at the sender (Section 2.2;
the paper's configuration gives every VC 8 KB of buffer).  Credits are
returned when the receiver drains the packet from its input buffer, and
the return itself takes a propagation delay.

Timing model (store-and-forward at packet granularity):

- transmission occupies the channel for ``size / bandwidth`` ns;
- the receiver sees the complete packet ``propagation`` ns after the
  last byte left;
- the sender-side component is re-polled (:meth:`pull`) when the
  channel frees or when credits come back, so the link never idles while
  a sendable packet exists -- and only then: the sender counts the
  packets it holds for this link in ``Link.backlog``, and a link whose
  backlog is zero wakes nobody (there is nothing to decide).

A :class:`Link` is one *simplex* channel; the fabric creates two per
cable.  :class:`CreditChannel` is the sender-side credit ledger, split
out so the host NIC and switch tests can exercise it alone.
"""

from __future__ import annotations

from functools import partial
from math import ceil
from typing import Optional, Protocol

from repro.core.invariants import InvariantViolation
from repro.network.packet import Packet
from repro.sim.engine import Engine

__all__ = ["CreditChannel", "CreditError", "Link"]


class CreditError(RuntimeError):
    """Credit accounting violated (send without credit / over-return)."""


class Receiver(Protocol):
    """Downstream side of a link: a switch input port or a host NIC."""

    def accept(self, pkt: Packet, link: "Link") -> None: ...


class Sender(Protocol):
    """Upstream side of a link, re-polled when it may transmit again.

    A sender adds every packet it queues for the link to ``link.backlog``
    and subtracts every packet it starts on it; the link re-polls it only
    while that count is non-zero.
    """

    def pull(self, link: "Link") -> None: ...


class CreditChannel:
    """Per-VC credit counters for one simplex channel.

    Initialized to the downstream buffer capacity; ``consume`` on
    transmit, ``replenish`` when the downstream frees space.  The sum of
    credits held here and bytes occupied (or in flight) downstream is
    invariant -- the credit-conservation property test pins that down.

    :class:`Link` applies the same two rules to ``credits`` in place, on
    the per-hop path, with the same :class:`CreditError` texts
    (``tests/network/test_link_properties.py`` drives both side by side).
    """

    __slots__ = ("initial", "credits")

    def __init__(self, capacity_bytes_per_vc: tuple[int, ...]):
        if len(capacity_bytes_per_vc) < 1:
            raise ValueError(f"need >= 1 VC capacity, got {capacity_bytes_per_vc!r}")
        for cap in capacity_bytes_per_vc:
            if cap <= 0:
                raise ValueError(f"VC capacity must be positive, got {cap}")
        self.initial = tuple(capacity_bytes_per_vc)
        self.credits = list(capacity_bytes_per_vc)

    def can_send(self, vc: int, size: int) -> bool:
        return self.credits[vc] >= size

    def consume(self, vc: int, size: int) -> None:
        if self.credits[vc] < size:
            raise CreditError(
                f"sending {size} B on vc{vc} with only {self.credits[vc]} credits"
            )
        self.credits[vc] -= size

    def replenish(self, vc: int, size: int) -> None:
        self.credits[vc] += size
        if self.credits[vc] > self.initial[vc]:
            raise CreditError(
                f"vc{vc} credits ({self.credits[vc]}) exceed buffer size "
                f"({self.initial[vc]}): double credit return"
            )


class Link:
    """One simplex channel from ``(src, src_port)`` to ``(dst, dst_port)``."""

    __slots__ = (
        "engine",
        "src",
        "src_port",
        "dst",
        "dst_port",
        "bytes_per_ns",
        "prop_delay_ns",
        "channel",
        "busy",
        "backlog",
        "sender",
        "receiver",
        "_after",
        "_tx_done_cb",
        "return_credit",
        "packets_carried",
        "bytes_carried",
        "busy_ns",
        "clock_domain",
    )

    def __init__(
        self,
        engine: Engine,
        *,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        bytes_per_ns: float,
        prop_delay_ns: int,
        buffer_bytes_per_vc: tuple[int, ...],
    ):
        if prop_delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay_ns}")
        if not bytes_per_ns > 0:
            raise ValueError(f"bandwidth must be positive, got {bytes_per_ns}")
        self.engine = engine
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.bytes_per_ns = bytes_per_ns
        self.prop_delay_ns = prop_delay_ns
        self.channel = CreditChannel(buffer_bytes_per_vc)
        self.busy = False
        #: Packets the sender holds for this link (its VOQs for this
        #: output, or a host's ready queues); kept by the sender.
        self.backlog = 0
        self.sender: Optional[Sender] = None
        self.receiver: Optional[Receiver] = None
        # Pre-bound scheduling and callback handles (the SIM303 pattern
        # applied by hand): `engine.after` plus each hot callback is
        # bound once here, so the per-packet path pays one attribute
        # load per site instead of a descriptor bind per event.
        # `sender.pull` / `receiver.accept` are deliberately NOT
        # pre-bound: those objects belong to the caller, and tests
        # monkeypatch their methods after attachment.
        self._after = engine.after
        self._tx_done_cb = self._tx_done
        #: ``return_credit(vc, size)``: called by the receiver when a packet
        #: leaves its input buffer.  The credit travels back over the wire,
        #: so the sender sees it a propagation delay later.  A partial of
        #: ``engine.after`` is called without a Python frame of its own.
        self.return_credit = partial(engine.after, prop_delay_ns, self._credit_arrived)
        self.packets_carried = 0
        self.bytes_carried = 0
        #: Total simulated time spent clocking bytes out; utilization over
        #: any window is the delta of this divided by the window length.
        self.busy_ns = 0
        #: When set (Section 3.3 mode), deadlines are carried across this
        #: link as time-to-destination values and re-based onto the
        #: receiving node's free-running clock.
        self.clock_domain = None

    @property
    def link_id(self) -> tuple[str, int]:
        """The directed-link key used by admission's bandwidth ledger."""
        return (self.src, self.src_port)

    def occupancy_ns(self, size_bytes: int) -> int:
        """Integer time this link's channel is occupied clocking
        ``size_bytes`` out -- the serialization component of a wire
        segment.  The span tracer uses it to split each arrival interval
        into ``link.transmit`` + ``link.propagate`` exactly (the same
        rounded-up value :meth:`transmit` schedules with, so the split
        telescopes without remainder).  Rounded up like
        :func:`repro.sim.units.serialization_ns`; the bandwidth was checked
        positive at construction."""
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        return ceil(size_bytes / self.bytes_per_ns)

    # ------------------------------------------------------------------
    def can_send(self, pkt: Packet) -> bool:
        return not self.busy and self.channel.can_send(pkt.vc, pkt.size)

    def transmit(self, pkt: Packet) -> None:
        """Start clocking ``pkt`` out.  Caller must have checked :meth:`can_send`."""
        if self.busy:
            raise CreditError(f"link {self.src}:{self.src_port} is busy")
        # CreditChannel.consume and occupancy_ns, written out: this runs
        # once per packet hop.
        vc = pkt.vc
        size = pkt.size
        credits = self.channel.credits
        if credits[vc] < size:
            raise CreditError(f"sending {size} B on vc{vc} with only {credits[vc]} credits")
        credits[vc] -= size
        self.busy = True
        tx_ns = ceil(size / self.bytes_per_ns)
        self.busy_ns += tx_ns
        self._after(tx_ns, self._tx_done_cb, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self.busy = False
        self.packets_carried += 1
        self.bytes_carried += pkt.size
        receiver = self.receiver
        if receiver is None:
            raise InvariantViolation(f"link {self.link_id} has no receiver")
        # The arrival is the receiver's ``accept`` itself, looked up now;
        # only a TTD-mode link needs a frame of its own there (_rebase).
        arrive = receiver.accept if self.clock_domain is None else self._rebase
        if self.prop_delay_ns:
            self._after(self.prop_delay_ns, arrive, pkt, self)
        else:
            # Zero-propagation fold: transmit + propagate collapse into
            # this single wakeup -- one engine event per packet hop.  (A
            # nonzero propagation delay needs the second event: freeing
            # the channel at tx-done is load-bearing for pipelining and
            # cannot wait until the packet lands.)
            arrive(pkt, self)
        if self.backlog:
            self.sender.pull(self)

    def _rebase(self, pkt: Packet, link: "Link") -> None:
        # Section 3.3: the header carried TTD = deadline - local clock of
        # the sender; the receiver reconstructs a deadline on *its* clock.
        pkt.deadline = self.clock_domain.rebase(
            pkt.deadline, self.src, self.dst, self.engine.now
        )
        self.receiver.accept(pkt, link)

    # ------------------------------------------------------------------
    def _credit_arrived(self, vc: int, size: int) -> None:
        # CreditChannel.replenish, written out (see transmit).
        channel = self.channel
        credits = channel.credits
        credits[vc] += size
        if credits[vc] > channel.initial[vc]:
            raise CreditError(
                f"vc{vc} credits ({credits[vc]}) exceed buffer size "
                f"({channel.initial[vc]}): double credit return"
            )
        if self.backlog and not self.busy:
            self.sender.pull(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.src}:{self.src_port}->{self.dst}:{self.dst_port}>"
