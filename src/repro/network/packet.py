"""The network-level packet.

Section 3 of the paper is explicit about what travels in a packet header:
the **deadline tag** and the **routing information** -- nothing else.  The
eligible-time tag exists only while the packet sits in the source
interface and "is not transmitted in the header".  We keep it on the
object for convenience but no switch-side code may read it;
``tests/integration/test_invariants.py::TestHeaderDiscipline`` enforces
that discipline statically.

Deadlines are absolute simulated times.  Section 3.3's clock-trick
(carrying the deadline as a *time-to-destination* and re-basing it on
each hop's local clock) is implemented in :mod:`repro.core.ttd` and is
provably equivalent to absolute deadlines, so the fast path uses absolute
values directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.constants import N_VCS, VC_BEST_EFFORT, VC_REGULATED

__all__ = ["Packet", "PacketFactory", "VC_REGULATED", "VC_BEST_EFFORT", "N_VCS"]

# Fallback uid counter for *bare* ``Packet(...)`` construction (unit
# tests, ad-hoc scripts).  Production paths mint through a per-fabric
# :class:`PacketFactory`, so run N and run N+1 in the same process see
# identical uid streams -- this module global is deliberately NOT part
# of any simulation result.
_next_uid = 0


def _take_uid() -> int:
    global _next_uid
    _next_uid += 1
    return _next_uid


class Packet:
    """One network-level packet (<= MTU bytes).

    Attributes mirror the paper's header plus bookkeeping for statistics:

    - ``flow_id``/``seq``: flow identity and per-flow sequence number
      (used only by tests/stats to check in-order delivery -- switches
      never look at them, exactly as in the paper).
    - ``deadline``: absolute cycle by which the packet should reach its
      destination; the only field switch arbiters may inspect.
    - ``eligible``: earliest injection time; meaningful only at the source.
    - ``path``: source route -- output-port index to take at each switch.
    - ``hop``: how many switches have been traversed so far.
    - ``msg_id``/``msg_seq``/``msg_parts``: application message (video
      frame, control message, burst) this packet is a segment of; used to
      report *frame* latency as Figure 3 does.
    - ``birth``: when the application handed the message to the NIC;
      ``inject``: when the first byte entered the network;
      ``deliver``: when the last byte reached the destination NIC.
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
        "eligible",
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

    def __init__(
        self,
        *,
        flow_id: int,
        seq: int,
        src: int,
        dst: int,
        size: int,
        vc: int,
        tclass: str,
        deadline: int,
        eligible: int = 0,
        path: Tuple[int, ...] = (),
        msg_id: int = 0,
        msg_seq: int = 0,
        msg_parts: int = 1,
        birth: int = 0,
        uid: Optional[int] = None,
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if vc < 0:
            raise ValueError(f"vc must be a non-negative channel index, got {vc}")
        self.uid = _take_uid() if uid is None else uid
        self.flow_id = flow_id
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.vc = vc
        self.tclass = tclass
        self.deadline = deadline
        self.eligible = eligible
        self.path = path
        self.hop = 0
        self.msg_id = msg_id
        self.msg_seq = msg_seq
        self.msg_parts = msg_parts
        self.birth = birth
        self.inject: Optional[int] = None
        self.deliver: Optional[int] = None
        #: When the packet entered the *current* switch's VOQ -- metrics
        #: bookkeeping only (arbitration-wait histograms); switches never
        #: arbitrate on it, so it is not part of the header discipline.
        self.hop_arrival: Optional[int] = None
        #: Set by :class:`repro.obs.tracing.PacketTracer` when the packet
        #: won the sampling draw at birth.  Instrumentation sites check
        #: this single bool before calling the tracer, so untraced
        #: packets pay one attribute load per site; arbiters never read
        #: it (not part of the header discipline).
        self.traced = False

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
    fabric-wide and -- unlike the module-global fallback counter -- reset
    with the fabric: two back-to-back runs in one process produce
    identical uid streams (the uid-determinism regression test pins
    this).

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
        *,
        flow_id: int,
        seq: int,
        src: int,
        dst: int,
        size: int,
        vc: int,
        tclass: str,
        deadline: int,
        eligible: int = 0,
        path: Tuple[int, ...] = (),
        msg_id: int = 0,
        msg_seq: int = 0,
        msg_parts: int = 1,
        birth: int = 0,
    ) -> Packet:
        """A fresh logical packet: pooled storage, never a pooled uid.

        Takes :class:`Packet`'s keywords (less ``uid``) with its defaults,
        spelled out so that minting packs and unpacks no keyword dict."""
        self._next_uid += 1
        pool = self._pool
        pkt = pool.pop() if pool else Packet.__new__(Packet)
        # Running __init__ sets every slot (hop, inject, deliver,
        # hop_arrival, traced, ...) -- a recycled packet is
        # indistinguishable from a newly allocated one.
        pkt.__init__(
            flow_id=flow_id, seq=seq, src=src, dst=dst, size=size, vc=vc,
            tclass=tclass, deadline=deadline, eligible=eligible, path=path,
            msg_id=msg_id, msg_seq=msg_seq, msg_parts=msg_parts, birth=birth,
            uid=self._next_uid,
        )
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
