"""Per-packet causal tracing: span-based lifecycle decomposition.

The metrics layer (:mod:`repro.obs.metrics`) answers *how many* packets
missed their deadline per class; this module answers *why one packet*
missed.  Every traced packet accumulates timestamped lifecycle events --
host submit, eligible-queue release, injection, per-switch VOQ arrival
and forward, delivery -- which decompose into **spans**: contiguous
``(stage, node, start_ns, dur_ns)`` intervals that partition the packet's
end-to-end latency *exactly*, in integer nanoseconds:

- ``host.eligible_wait`` -- submit until the eligible-time regulator
  released the packet (smoothed regulated flows only);
- ``host.queue_wait``    -- VC-queue entry until injection won the NIC
  arbitration (deadline order + credits + link availability);
- ``link.transmit``      -- serialization onto the wire (link occupancy);
- ``link.propagate``     -- flight time after the last byte left;
- ``switch.voq_wait``    -- VOQ arrival until the output-port arbiter
  forwarded the packet (one span per switch hop).

Because every span consumes the interval between two recorded engine
timestamps and the serialization/propagation split is computed from the
link's own integer ``occupancy_ns``, the spans telescope: their sum is
``deliver - birth`` by construction, with no float in sight.  The
``trace blame`` analyzer (:mod:`repro.obs.blame`) leans on that
invariant to attribute missed deadlines to the stage that burned the
slack.

**Sampling.**  Tracing every packet of a large run is neither affordable
nor useful, so retention is governed by one of two deterministic
policies, both seeded through :mod:`repro.sim.rng` streams:

- ``head`` (probabilistic head sampling): the keep/skip decision is made
  once at packet birth, from a per-flow random stream derived from
  ``(seed, flow_id)`` -- adding flows never perturbs the sampling of
  existing ones, and the same seed always samples the same packets.
- ``tail`` (tail-based sampling): every packet is tracked in flight, but
  the full span chain is *retained* only when the packet misses its
  deadline -- the interesting traces by definition, at the cost of
  tracking live packets (bounded by the number in flight).

Retained traces live in a bounded ring (``capacity`` newest kept, like
``Trace(ring=True)``); evictions are counted and reported by
:meth:`PacketTracer.snapshot`, mirroring the drop-policy discipline of
:meth:`repro.sim.monitor.Trace.snapshot`.

**Overhead discipline.**  Off is ``None``: a run without a tracer passes
none, and a fabric given no sink builds no observer.  Only
:class:`repro.obs.observer.FabricObserver` feeds a tracer, after testing
``pkt.traced``; ``metrics=None`` likewise means no per-class counters.
On, the rule is append on the hot path, check at ``finish``, build on
read.  A per-hop event is one tuple appended to the packet's open chain.
:meth:`PacketTracer.finish` checks the whole chain inside the delivering
event and stores it raw, so a malformed chain fails the event that
produced it and a chain the ring later evicts -- nine in ten at rate 1.0
-- was checked like any other (checking on read would be cheaper still,
and would never look at those).  :class:`Span` and :class:`SpanTrace`
objects exist only for chains still retained when
:attr:`PacketTracer.records` is read: the first read builds at most
``capacity`` of them, later reads only what was appended since.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import Counter, class_counter
from repro.sim.rng import RandomStream, derive_seed

__all__ = [
    "PacketTracer",
    "Span",
    "SpanTrace",
    "read_spans_jsonl",
    "write_chrome_trace",
    "write_spans_jsonl",
]

#: Stage vocabulary, in lifecycle order (see the module docstring).
STAGES: Tuple[str, ...] = (
    "host.eligible_wait",
    "host.queue_wait",
    "link.transmit",
    "link.propagate",
    "switch.voq_wait",
)

_POLICY_LABELS = {
    "head": "head-probabilistic",
    "tail": "tail-deadline-miss",
}


class Span(NamedTuple):
    """One contiguous lifecycle interval, in integer nanoseconds."""

    stage: str
    node: str
    start_ns: int
    dur_ns: int

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class SpanTrace:
    """The complete, exactly-decomposed lifecycle of one delivered packet.

    ``spans`` telescope: ``spans[0].start_ns == birth_ns``, every span
    starts where the previous one ended, and the last ends at
    ``deliver_ns`` -- so ``sum(s.dur_ns) == deliver_ns - birth_ns``
    exactly.  :meth:`verify` re-checks that invariant (used by the
    property tests and the ``trace blame`` loader).
    """

    __slots__ = (
        "uid",
        "flow_id",
        "tclass",
        "vc",
        "src",
        "dst",
        "size",
        "deadline",
        "birth_ns",
        "deliver_ns",
        "slack_ns",
        "missed",
        "spans",
    )

    def __init__(
        self,
        *,
        uid: int,
        flow_id: int,
        tclass: str,
        vc: int,
        src: int,
        dst: int,
        size: int,
        deadline: int,
        birth_ns: int,
        deliver_ns: int,
        slack_ns: int,
        missed: bool,
        spans: Tuple[Span, ...],
    ):
        self.uid = uid
        self.flow_id = flow_id
        self.tclass = tclass
        self.vc = vc
        self.src = src
        self.dst = dst
        self.size = size
        self.deadline = deadline
        self.birth_ns = birth_ns
        self.deliver_ns = deliver_ns
        self.slack_ns = slack_ns
        self.missed = missed
        self.spans = spans

    @property
    def e2e_ns(self) -> int:
        """End-to-end latency: submit at the source NIC to delivery."""
        return self.deliver_ns - self.birth_ns

    def verify(self) -> None:
        """Raise :class:`ValueError` unless the spans partition
        ``[birth_ns, deliver_ns]`` exactly (telescoping, non-negative,
        integer-sum identity)."""
        t = self.birth_ns
        for span in self.spans:
            if span.start_ns != t:
                raise ValueError(
                    f"packet {self.uid}: span {span.stage!r} starts at "
                    f"{span.start_ns}, expected {t} (gap or overlap)"
                )
            if span.dur_ns < 0:
                raise ValueError(
                    f"packet {self.uid}: span {span.stage!r} has negative "
                    f"duration {span.dur_ns}"
                )
            t = span.end_ns
        if t != self.deliver_ns:
            raise ValueError(
                f"packet {self.uid}: spans end at {t}, delivery was at "
                f"{self.deliver_ns} -- decomposition is not exact"
            )

    def to_dict(self) -> dict:
        """JSON-ready form (stable shape; spans as plain lists)."""
        return {
            "uid": self.uid,
            "flow_id": self.flow_id,
            "tclass": self.tclass,
            "vc": self.vc,
            "src": self.src,
            "dst": self.dst,
            "size": self.size,
            "deadline": self.deadline,
            "birth_ns": self.birth_ns,
            "deliver_ns": self.deliver_ns,
            "slack_ns": self.slack_ns,
            "missed": self.missed,
            "spans": [list(span) for span in self.spans],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanTrace":
        spans = tuple(Span(str(s[0]), str(s[1]), int(s[2]), int(s[3])) for s in doc["spans"])
        return cls(
            uid=int(doc["uid"]),
            flow_id=int(doc["flow_id"]),
            tclass=str(doc["tclass"]),
            vc=int(doc["vc"]),
            src=int(doc["src"]),
            dst=int(doc["dst"]),
            size=int(doc["size"]),
            deadline=int(doc["deadline"]),
            birth_ns=int(doc["birth_ns"]),
            deliver_ns=int(doc["deliver_ns"]),
            slack_ns=int(doc["slack_ns"]),
            missed=bool(doc["missed"]),
            spans=spans,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanTrace pkt{self.uid} {self.tclass} e2e={self.e2e_ns}ns "
            f"slack={self.slack_ns}ns {len(self.spans)} spans>"
        )


#: What :meth:`PacketTracer.finish` copies off the packet, in ring-entry order.
_HEADER_FIELDS = SpanTrace.__slots__[:-1]


def _check_chain(events: List[Tuple[str, str, int, int]]) -> None:
    """Raise :class:`ValueError` unless ``events`` is a chain
    :func:`_build_spans` can decompose exactly (starts with ``submit``,
    known kinds, non-decreasing times, serialization inside its wire
    segment).  Allocates nothing: this is what runs per delivered packet."""
    if not events or events[0][0] != "submit":
        raise ValueError(f"event chain must start with 'submit', got {events[:1]}")
    t = events[0][2]
    for kind, node, te, ser in events[1:]:
        if te < t:
            raise ValueError(f"event {kind!r} at t={te} precedes t={t}")
        if kind == "arrive" or kind == "deliver":
            if not 0 <= ser <= te - t:
                raise ValueError(
                    f"serialization {ser}ns does not fit the {te - t}ns "
                    f"wire segment into {node!r}"
                )
        elif kind not in ("forward", "inject", "eligible"):
            raise ValueError(f"unknown lifecycle event kind {kind!r}")
        t = te


def _build_spans(events: List[Tuple[str, str, int, int]]) -> Tuple[Span, ...]:
    """The span chain of an event list that passed :func:`_check_chain`."""
    _, source, t, _ = events[0]
    sender = source
    spans: List[Span] = []
    for kind, node, te, ser in events[1:]:
        if kind == "eligible":
            spans.append(Span("host.eligible_wait", source, t, te - t))
        elif kind == "inject":
            spans.append(Span("host.queue_wait", source, t, te - t))
        elif kind == "forward":
            spans.append(Span("switch.voq_wait", node, t, te - t))
            sender = node
        else:  # arrive / deliver
            spans.append(Span("link.transmit", sender, t, ser))
            spans.append(Span("link.propagate", sender, t + ser, te - t - ser))
        t = te
    return tuple(spans)


def decompose_events(
    events: List[Tuple[str, str, int, int]],
) -> Tuple[Span, ...]:
    """Turn a packet's raw event list into its exact span chain.

    ``events`` are ``(kind, node, t_ns, ser_ns)`` tuples in lifecycle
    order -- ``submit``, optional ``eligible``, ``inject``, then
    alternating ``arrive``/``forward`` per switch hop, ending with
    ``deliver``.  ``ser_ns`` (the incoming link's integer serialization
    time) rides on ``arrive``/``deliver`` and splits each wire segment
    into transmit + propagate.  Every span consumes exactly the interval
    between two consecutive timestamps, so the chain telescopes from
    submit to delivery with no remainder.
    """
    _check_chain(events)
    return _build_spans(events)


class PacketTracer:
    """Span-based packet-lifecycle tracer with deterministic sampling.

    A packet's lifecycle reaches the tracer through four hooks (for
    packets whose ``traced`` bit is set, once :meth:`begin` has decided
    it):

    - :meth:`begin`   at submit (makes the head-sampling decision),
    - :meth:`event`   for ``eligible`` / ``inject`` / ``forward``,
    - :meth:`arrive`  at switch VOQ entry (captures link occupancy),
    - :meth:`finish`  at delivery (checks the chain, applies retention).

    The fabric's observer calls :meth:`begin` and :meth:`finish`; between
    them it appends to ``live[pkt.uid]`` itself, which is all
    :meth:`event` and :meth:`arrive` do for a caller driving a tracer by
    hand.

    ``policy="tail"`` retains only deadline misses; ``policy="head"``
    retains every packet that won the per-flow Bernoulli draw at
    ``rate``.  Either way at most ``capacity`` traces are kept (newest
    win, evictions counted), and :meth:`snapshot` reports the sampling
    and retention ledger for the run snapshot's ``spans`` section.
    """

    def __init__(
        self,
        *,
        policy: str = "tail",
        rate: float = 0.01,
        capacity: int = 4096,
        seed: int = 0,
        metrics=None,
    ):
        if policy not in _POLICY_LABELS:
            raise ValueError(
                f"unknown sampling policy {policy!r}; pick one of "
                f"{sorted(_POLICY_LABELS)}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.policy = policy
        self.rate = rate
        self.capacity = capacity
        self.seed = seed
        self.metrics = metrics
        #: Retained traces, newest kept (ring semantics like Trace(ring=True)).
        #: :meth:`finish` appends a flat tuple: ``_HEADER_FIELDS`` copied
        #: off the packet (which its factory recycles right after
        #: delivery), then the checked event chain; :attr:`records` turns
        #: the entries still in that form into :class:`SpanTrace`s, in place.
        self._ring: Deque[Any] = deque(maxlen=capacity)
        self.sampled = 0
        self.unsampled = 0
        self.completed = 0
        self.misses = 0
        self.dropped = 0
        #: In-flight event chains: pkt.uid -> [(kind, node, t_ns, ser_ns)].
        #: Whoever appends (the observer, per hop) appends unchecked;
        #: :meth:`finish` checks the chain as a whole.
        self.live: Dict[int, List[Tuple[str, str, int, int]]] = {}
        #: Per-flow head-sampling streams, derived from (seed, flow_id) so
        #: adding flows never perturbs the draws of existing ones.
        self._streams: Dict[int, RandomStream] = {}
        self._m_retained_by_class: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # hot-path hooks (the observer guards with `pkt.traced`)
    # ------------------------------------------------------------------
    def begin(self, pkt: Any, t_ns: int, node: str) -> None:
        """Packet born at the source NIC: decide sampling, open the chain."""
        if self.policy == "head":
            stream = self._streams.get(pkt.flow_id)
            if stream is None:
                # Evicting a stream would reset its draw position and
                # perturb that flow's sampling; determinism requires one
                # live stream per flow ever sampled.
                stream = self._streams[pkt.flow_id] = RandomStream(  # simlint: allow-unbounded-keyed-growth
                    derive_seed(self.seed, f"obs.tracing.flow{pkt.flow_id}")
                )
            if stream.random() >= self.rate:
                self.unsampled += 1
                return
        pkt.traced = True
        self.sampled += 1
        self.live[pkt.uid] = [("submit", node, t_ns, 0)]

    def event(self, pkt: Any, kind: str, t_ns: int, node: str = "") -> None:
        """Record a serialization-free lifecycle event (``eligible``,
        ``inject``, ``forward``)."""
        events = self.live.get(pkt.uid)
        if events is not None:
            events.append((kind, node, t_ns, 0))

    def arrive(self, pkt: Any, t_ns: int, node: str, link: Any) -> None:
        """Packet fully arrived at a switch VOQ over ``link``."""
        events = self.live.get(pkt.uid)
        if events is not None:
            events.append(("arrive", node, t_ns, link.occupancy_ns(pkt.size)))

    def finish(self, pkt: Any, t_ns: int, *, node: str, link: Any, slack_ns: int) -> None:
        """Packet delivered: close the chain, check it, apply retention."""
        events = self.live.pop(pkt.uid, None)
        if events is None:
            return
        self.completed += 1
        missed = slack_ns < 0
        if missed:
            self.misses += 1
        if self.policy == "tail" and not missed:
            return
        events.append(("deliver", node, t_ns, link.occupancy_ns(pkt.size)))
        _check_chain(events)  # a malformed chain fails the event that delivered it
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest
        ring.append(
            (
                pkt.uid,
                pkt.flow_id,
                pkt.tclass,
                pkt.vc,
                pkt.src,
                pkt.dst,
                pkt.size,
                pkt.deadline,
                pkt.birth,
                t_ns,
                slack_ns,
                missed,
                events,
            )
        )
        if self.metrics is not None:
            class_counter(
                self.metrics,
                self._m_retained_by_class,
                pkt.tclass,
                "obs.tracing.class.{tclass}.retained_total",
            ).value += 1

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    @property
    def records(self) -> Deque[SpanTrace]:
        """The retained traces, oldest first.  Reading builds the
        :class:`SpanTrace` of every entry added since the last read (at
        most ``capacity`` of them, however many packets were delivered)."""
        ring = self._ring
        # Built entries are a prefix: finish() only ever appends raw ones.
        index = len(ring) - 1
        while index >= 0 and type(ring[index]) is tuple:
            *header, events = ring[index]
            ring[index] = SpanTrace(
                **dict(zip(_HEADER_FIELDS, header)), spans=_build_spans(events)
            )
            index -= 1
        return ring

    @property
    def inflight(self) -> int:
        """Open chains: sampled packets submitted but not yet delivered."""
        return len(self.live)

    def snapshot(self) -> dict:
        """Sampling + retention ledger, JSON-ready (the run snapshot's
        ``spans`` section; drop policy reported like ``Trace.snapshot``)."""
        return {
            "policy": _POLICY_LABELS[self.policy],
            "rate": self.rate if self.policy == "head" else 1.0,
            "capacity": self.capacity,
            "seed": self.seed,
            "sampled": self.sampled,
            "unsampled": self.unsampled,
            "completed": self.completed,
            "misses": self.misses,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "inflight": len(self.live),
        }


# ----------------------------------------------------------------------
# export: JSONL (exact) and Chrome trace-event JSON (Perfetto-loadable)
# ----------------------------------------------------------------------
def write_spans_jsonl(tracer: PacketTracer, fp: IO[str]) -> int:
    """Dump retained span traces as JSONL: one summary header line, then
    one sorted-keys line per trace (byte-stable for identical runs).
    Returns the trace count written."""
    header = {"type": "span-trace-summary"}
    header.update(tracer.snapshot())
    fp.write(json.dumps(header, sort_keys=True) + "\n")
    written = 0
    for record in tracer.records:
        fp.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        written += 1
    return written


def read_spans_jsonl(path: str) -> Tuple[dict, List[SpanTrace]]:
    """Load a span-trace JSONL dump.  Returns ``(header, traces)``;
    raises :class:`ValueError` when the file is not a span dump."""
    with open(path, "r", encoding="utf-8") as fp:
        first = fp.readline()
        if not first:
            raise ValueError(f"{path} is empty, not a span-trace dump")
        header = json.loads(first)
        if not isinstance(header, dict) or header.get("type") != "span-trace-summary":
            raise ValueError(
                f"{path} is not a span-trace dump (missing the "
                "'span-trace-summary' header line; was it written by "
                "`run --trace-spans`?)"
            )
        traces = [SpanTrace.from_dict(json.loads(line)) for line in fp if line.strip()]
    return header, traces


def write_chrome_trace(
    records,
    fp: IO[str],
    *,
    run_info: Optional[dict] = None,
) -> int:
    """Write span traces in Chrome trace-event JSON (object format),
    loadable in Perfetto / ``chrome://tracing``.

    Each span becomes one complete ("X") event; packets group as tracks
    under their flow (pid = flow, tid = packet uid) with a process-name
    metadata row per flow.  ``ts``/``dur`` are microsecond floats as the
    trace-event format requires -- the *exact* integer-ns decomposition
    lives in the JSONL dump and in every event's ``args``.  Returns the
    number of span events written.
    """
    events: List[dict] = []
    named_flows = set()
    written = 0
    for record in records:
        if record.flow_id not in named_flows:
            named_flows.add(record.flow_id)
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": record.flow_id,
                    "tid": 0,
                    "args": {"name": f"flow {record.flow_id} ({record.tclass})"},
                }
            )
        for span in record.spans:
            events.append(
                {
                    "ph": "X",
                    "name": span.stage,
                    "cat": record.tclass,
                    "pid": record.flow_id,
                    "tid": record.uid,
                    "ts": span.start_ns / 1000.0,
                    "dur": span.dur_ns / 1000.0,
                    "args": {
                        "node": span.node,
                        "start_ns": span.start_ns,
                        "dur_ns": span.dur_ns,
                        "deadline_ns": record.deadline,
                        "slack_ns": record.slack_ns,
                        "missed": record.missed,
                    },
                }
            )
            written += 1
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(run_info or {}),
    }
    json.dump(doc, fp, sort_keys=True)
    fp.write("\n")
    return written
