"""The network-level packet.

Section 3 of the paper is explicit about what travels in a packet header:
the **deadline tag** and the **routing information** -- nothing else.  The
eligible-time tag exists only while the packet sits in the source
interface and "is not transmitted in the header": it lives in the host's
pending heap, not on the packet, and
``tests/integration/test_invariants.py::TestHeaderDiscipline`` keeps
switch-side code from reading it.

Deadlines are absolute simulated times.  Section 3.3's clock-trick
(carrying the deadline as a *time-to-destination* and re-basing it on
each hop's local clock) is implemented in :mod:`repro.core.ttd` and is
provably equivalent to absolute deadlines, so the fast path uses absolute
values directly.
"""

from __future__ import annotations

from typing import Tuple

from repro.constants import N_VCS, VC_BEST_EFFORT, VC_REGULATED

__all__ = ["Packet", "PacketFactory", "VC_REGULATED", "VC_BEST_EFFORT", "N_VCS"]


class Packet:
    """One network-level packet (<= MTU bytes).

    Attributes mirror the paper's header plus bookkeeping for statistics:

    - ``flow_id``/``seq``: flow identity and per-flow sequence number
      (used only by tests/stats to check in-order delivery -- switches
      never look at them, exactly as in the paper).
    - ``deadline``: absolute cycle by which the packet should reach its
      destination; the only field switch arbiters may inspect.
    - ``path``: source route -- output-port index to take at each switch.
    - ``hop``: how many switches have been traversed so far.
    - ``msg_id``/``msg_seq``/``msg_parts``: application message (video
      frame, control message, burst) this packet is a segment of; used to
      report *frame* latency as Figure 3 does.
    - ``birth``: when the application handed the message to the NIC;
      ``inject``: when the first byte entered the network;
      ``deliver``: when the last byte reached the destination NIC.
    - ``hop_arrival``: when the packet entered the *current* switch's
      VOQ -- metrics bookkeeping only (arbitration-wait histograms).
    - ``traced``: the open span chain, a flat list ``kind, node, t_ns,
      ser_ns, ...`` :class:`repro.obs.tracing.PacketTracer` starts when
      the packet wins the sampling draw at birth; falsy otherwise.

    Switches arbitrate on neither of the last two, so they are not part
    of the header discipline.  :meth:`PacketFactory.mint` is the only
    constructor: it sets every slot.
    """

    __slots__ = (
        "uid",
        "flow_id",
        "seq",
        "src",
        "dst",
        "size",
        "vc",
        "tclass",
        "deadline",
        "path",
        "hop",
        "msg_id",
        "msg_seq",
        "msg_parts",
        "birth",
        "inject",
        "deliver",
        "hop_arrival",
        "traced",
    )

    def next_output_port(self) -> int:
        """Source routing: the output port to take at the current switch."""
        return self.path[self.hop]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet f{self.flow_id}#{self.seq} {self.src}->{self.dst} "
            f"{self.size}B vc{self.vc} D={self.deadline}>"
        )


class PacketFactory:
    """Per-fabric packet minting: deterministic uids plus optional pooling.

    One factory is shared by every host of a fabric, so uids are unique
    fabric-wide and reset with the fabric: two back-to-back runs in one
    process produce identical uid streams (the uid-determinism regression
    test pins this).

    With ``pooling`` enabled, :meth:`recycle` keeps delivered packets on
    a free list and :meth:`mint` re-initializes one instead of
    allocating.  Lifecycle rules (ARCHITECTURE.md section 10): a packet
    may be recycled only once it has left every queue and every
    observer; uids are minted fresh per *logical* packet either way, so
    tracing and statistics are byte-identical with pooling on or off.
    """

    __slots__ = ("pooling", "_next_uid", "_pool")

    def __init__(self, *, pooling: bool = False):
        self.pooling = pooling
        self._next_uid = 0
        self._pool: list[Packet] = []

    @property
    def uids_minted(self) -> int:
        return self._next_uid

    @property
    def pooled(self) -> int:
        return len(self._pool)

    def mint(
        self,
        flow_id: int,
        seq: int,
        src: int,
        dst: int,
        size: int,
        vc: int,
        tclass: str,
        deadline: int,
        path: Tuple[int, ...] = (),
        msg_id: int = 0,
        msg_seq: int = 0,
        msg_parts: int = 1,
        birth: int = 0,
    ) -> Packet:
        """A fresh logical packet: pooled storage, never a pooled uid.

        May be called positionally: the host NIC mints every packet here,
        in one frame with no keyword matching.  Every slot is set, so a
        recycled packet is indistinguishable from a newly allocated one.
        """
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if vc < 0:
            raise ValueError(f"vc must be a non-negative channel index, got {vc}")
        self._next_uid += 1
        pool = self._pool
        pkt = pool.pop() if pool else Packet.__new__(Packet)
        pkt.uid = self._next_uid
        pkt.flow_id = flow_id
        pkt.seq = seq
        pkt.src = src
        pkt.dst = dst
        pkt.size = size
        pkt.vc = vc
        pkt.tclass = tclass
        pkt.deadline = deadline
        pkt.path = path
        pkt.hop = 0
        pkt.msg_id = msg_id
        pkt.msg_seq = msg_seq
        pkt.msg_parts = msg_parts
        pkt.birth = birth
        pkt.inject = None
        pkt.deliver = None
        pkt.hop_arrival = None
        pkt.traced = False
        return pkt

    def recycle(self, pkt: Packet) -> None:
        """Return a delivered packet's storage to the free list.

        Callers must guarantee no live reference remains (host ``accept``
        calls this after the last observer hook).  No-op unless pooling
        was requested, so default-configured fabrics keep plain GC
        semantics.
        """
        if self.pooling:
            self._pool.append(pkt)
