"""Flow descriptors and per-flow sender state.

A *flow* is a single connection (Section 3): source, destination, a fixed
route, and whatever is needed to compute deadlines.  All of this state
lives in the **end hosts** -- switches keep no flow records, which is the
paper's central implementability constraint.

- :class:`FlowSpec` -- the description (who, where, which class, how
  deadlines are computed), validated where it is built.
- :class:`FlowState` -- the mutable sender-side record: deadline stamper
  (virtual clock), sequence counters, and the route assigned at admission.
- :class:`FlowRegistry` -- id allocation and lookup for a simulation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.invariants import invariant
from repro.core.deadline import DeadlineStamper, FrameBasedStamper, RateBasedStamper
from repro.constants import VC_BEST_EFFORT, VC_REGULATED

__all__ = ["FlowKind", "FlowRegistry", "FlowSpec", "FlowState"]


class FlowKind:
    """How deadlines are computed for a flow (Section 3.1)."""

    RATE = "rate"  # Virtual Clock over reserved average bandwidth
    FRAME = "frame"  # frame-latency based (multimedia)
    CONTROL = "control"  # rate-based at full link bandwidth, no admission


#: The kinds whose deadlines come from a bandwidth.
_RATE_STAMPED = (FlowKind.RATE, FlowKind.CONTROL)


class FlowSpec:
    """A flow's description, checked once and not rewritten afterwards.

    ``bw_bytes_per_ns`` is the reserved average bandwidth for RATE flows
    and the *deadline-generation* bandwidth for best-effort aggregated
    flows (no reservation is made for those, but the weight still shapes
    their deadlines and hence their share under contention -- Figure 4).
    ``target_latency_ns`` applies to FRAME flows.  ``smoothing`` says
    whether eligible-time smoothing applies to this flow's packets.

    A slotted class with a hand-written ``__init__``: a run at the
    paper's size opens tens of thousands of these.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "tclass",
        "kind",
        "vc",
        "bw_bytes_per_ns",
        "target_latency_ns",
        "smoothing",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        tclass: str,
        kind: str = FlowKind.RATE,
        vc: int = VC_REGULATED,
        bw_bytes_per_ns: Optional[float] = None,
        target_latency_ns: Optional[int] = None,
        smoothing: bool = False,
    ):
        if src == dst:
            raise ValueError(f"flow {flow_id}: src == dst == {src}")
        if kind == FlowKind.FRAME:
            if not target_latency_ns or target_latency_ns <= 0:
                raise ValueError(f"flow {flow_id}: frame flows need target_latency_ns > 0")
        elif kind not in _RATE_STAMPED:
            raise ValueError(f"unknown flow kind {kind!r}")
        elif not bw_bytes_per_ns or bw_bytes_per_ns <= 0:
            raise ValueError(f"flow {flow_id}: {kind} flows need bw_bytes_per_ns > 0")
        if vc < 0:
            raise ValueError(f"flow {flow_id}: bad vc {vc}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.tclass = tclass
        self.kind = kind
        self.vc = vc
        self.bw_bytes_per_ns = bw_bytes_per_ns
        self.target_latency_ns = target_latency_ns
        self.smoothing = smoothing

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"FlowSpec({fields})"

    def make_stamper(self) -> DeadlineStamper:
        if self.kind == FlowKind.FRAME:
            invariant(
                self.target_latency_ns is not None,
                "frame flow %s has no target latency", self.flow_id,
            )
            return FrameBasedStamper(self.target_latency_ns)
        invariant(
            self.bw_bytes_per_ns is not None,
            "%s flow %s has no bandwidth for deadline computation",
            self.kind, self.flow_id,
        )
        return RateBasedStamper(self.bw_bytes_per_ns)


class FlowState:
    """Mutable sender-side record for one flow."""

    __slots__ = (
        "spec",
        "stamper",
        "path",
        "next_seq",
        "next_msg",
        "packets_sent",
        "bytes_sent",
    )

    def __init__(self, spec: FlowSpec, stamper: DeadlineStamper):
        self.spec = spec
        self.stamper = stamper
        #: Source route: output port to take at each switch (set at admission).
        self.path: Tuple[int, ...] = ()
        #: The next packet sequence number and message id; the source NIC
        #: takes a whole message's worth at once.
        self.next_seq = 0
        self.next_msg = 0
        #: Totals for statistics/validation.
        self.packets_sent = 0
        self.bytes_sent = 0

    def __repr__(self) -> str:
        return (
            f"FlowState({self.spec!r}, path={self.path}, next_seq={self.next_seq}, "
            f"next_msg={self.next_msg})"
        )


class FlowRegistry:
    """Allocates flow ids and stores the sender-side state of every flow."""

    def __init__(self) -> None:
        self._flows: Dict[int, FlowState] = {}
        self._next_id = 1

    def create(
        self, *spec_args, stamper: Optional[DeadlineStamper] = None, **spec_kwargs
    ) -> FlowState:
        """Create a flow, auto-assigning ``flow_id``; the other arguments
        are :class:`FlowSpec`'s, in its order or by name.  ``stamper`` is
        the virtual clock to stamp with when several flows share one; by
        default the flow gets its own, as its spec describes."""
        flow_id = self._next_id
        self._next_id = flow_id + 1
        spec = FlowSpec(flow_id, *spec_args, **spec_kwargs)
        if stamper is None:
            stamper = spec.make_stamper()
        state = self._flows[flow_id] = FlowState(spec, stamper)
        return state

    def get(self, flow_id: int) -> FlowState:
        return self._flows[flow_id]

    def close(self, flow_id: int) -> FlowState:
        """Retire a finished flow, releasing its sender-side state.

        Scale runs with flow churn must close flows as they finish;
        otherwise the registry holds every :class:`FlowState` ever
        created for the life of the fabric.  Returns the closed state so
        callers can archive its totals first.
        """
        return self._flows.pop(flow_id)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowState]:
        return iter(self._flows.values())

    def by_host(self, src: int) -> list[FlowState]:
        return [f for f in self._flows.values() if f.spec.src == src]
