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
  The n-th packet of a flow is kept iff the stream's n-th ``random()``
  is below ``rate``.  A flow does not keep its stream: it keeps those
  decisions, drawn ahead in blocks as bits of an int, and a stream
  exists only while a block is drawn (see :meth:`PacketTracer.begin`).
- ``tail`` (tail-based sampling): every packet is tracked in flight, but
  the full span chain is *retained* only when the packet misses its
  deadline -- the interesting traces by definition, at the cost of
  tracking live packets (bounded by the number in flight).

Retained traces live in a bounded ring (``capacity`` newest kept, like
:class:`repro.sim.monitor.Trace`); evictions are counted and reported by
:meth:`PacketTracer.snapshot`, mirroring the drop-policy discipline of
:meth:`repro.sim.monitor.Trace.snapshot`.

**Overhead discipline.**  Off is ``None``: a run without a tracer passes
none, and a fabric given no sink builds no observer.  Only
:class:`repro.obs.observer.FabricObserver` feeds a tracer, after testing
``pkt.traced``; ``metrics=None`` likewise means no per-class counters.
On, the rule is append on the hot path, check and build on read.  A
traced packet's open chain is ``pkt.traced``, a flat list ``kind, node,
t_ns, ser_ns, ...`` a hop extends by four scalars.
:meth:`PacketTracer.finish` stores it, header added, as one list, and
checks nothing.  :class:`Span` and :class:`SpanTrace` objects exist only
for chains still retained when :attr:`PacketTracer.records` is read: the
first read checks and builds at most ``capacity`` of them, later reads
only what was appended since.  So every trace anyone reads was checked,
and a chain the ring evicts unread -- nine in ten at rate 1.0 -- never
is.  Head sampling costs a flow about 160 bytes (its dict entry and a
three-slot list: the current word of decision bits, the rest of the
block, the draws made), not a 2.9 kB Mersenne Twister.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import Counter, class_counter
from repro.sim.rng import local_stream

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
    property tests and :func:`read_spans_jsonl`, on every trace it loads).
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


#: What :meth:`PacketTracer.finish` copies off the packet onto the end of
#: a retained chain, in order.
_HEADER_FIELDS = SpanTrace.__slots__[:-1]
_N_HEADER = len(_HEADER_FIELDS)

#: Head sampling reads a flow's decisions a word of this many bits at a
#: time.  A flow's first block of decisions is one word; each later block
#: holds as many as all before it plus one word, so blocks double and the
#: draws a block's stream skips add up to less than the flow's length.
_WORD = 64
_WORD_MASK = (1 << _WORD) - 1
#: The marker bit above a word's (and a block's) unread decisions: a word
#: equal to 1 has none left.
_WORD_MARK = 1 << _WORD
#: ``random()`` reads two 32-bit outputs of the generator, and
#: ``getrandbits(k)`` reads ``k // 32`` when 32 divides ``k``, so this
#: many bits skip one word's worth of ``random()`` draws.
_WORD_SKIP_BITS = 64 * _WORD

_WIRE_KINDS = ("arrive", "deliver")
_OFF_WIRE_KINDS = ("forward", "inject", "eligible")
_KINDS = frozenset(_WIRE_KINDS + _OFF_WIRE_KINDS)


def _check_chain(chain: List[Any], end: int) -> None:
    """Raise :class:`ValueError` unless the flat ``chain[:end]`` (``kind,
    node, t_ns, ser_ns`` per event) is one :func:`_build_spans` can decompose
    exactly (starts with ``submit``, whole events, known kinds,
    non-decreasing times, serialization inside its wire segment).
    Allocates nothing: this is what runs per trace read.  The loop
    tests one sufficient condition per event -- a known kind and
    ``0 <= ser_ns <= t_ns - previous t_ns`` -- and leaves the exact rule,
    and its message, to :func:`_refuse_event`."""
    if not end or chain[0] != "submit":
        raise ValueError(f"event chain must start with 'submit', got {chain[:4]}")
    if end % 4:
        raise ValueError(f"event chain of {end} scalars is not whole 4-scalar events")
    t = chain[2]
    i = 6  # the second event's t_ns
    while i < end:
        te = chain[i]
        if not 0 <= chain[i + 1] <= te - t or chain[i - 2] not in _KINDS:
            _refuse_event(chain, i - 2, t)
        t = te
        i += 4


def _refuse_event(chain: List[Any], i: int, t: int) -> None:
    """Raise for the event at ``chain[i]`` (the previous event at ``t``)
    if it breaks a rule of :func:`_check_chain`; a ``ser_ns`` on an event
    that crosses no wire is not checked."""
    kind, node, te, ser = chain[i : i + 4]
    if te < t:
        raise ValueError(f"event {kind!r} at t={te} precedes t={t}")
    if kind in _WIRE_KINDS:
        raise ValueError(
            f"serialization {ser}ns does not fit the {te - t}ns "
            f"wire segment into {node!r}"
        )
    if kind not in _OFF_WIRE_KINDS:
        raise ValueError(f"unknown lifecycle event kind {kind!r}")


def _build_spans(chain: List[Any]) -> Tuple[Span, ...]:
    """The span chain of a flat chain that passed :func:`_check_chain`."""
    source, t = chain[1], chain[2]
    sender = source
    spans: List[Span] = []
    scalars = iter(chain)
    events = zip(scalars, scalars, scalars, scalars)
    next(events)
    for kind, node, te, ser in events:
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
    chain = [scalar for event in events for scalar in event]
    _check_chain(chain, len(chain))
    return _build_spans(chain)


class PacketTracer:
    """Span-based packet-lifecycle tracer with deterministic sampling.

    A packet's lifecycle reaches the tracer from the fabric's observer
    (for packets whose ``traced`` chain is non-empty, once :meth:`begin`
    has decided it):

    - :meth:`begin`   at submit (makes the head-sampling decision),
    - ``pkt.traced``, the open chain, gets ``kind, node, t_ns, ser_ns``
      per ``eligible`` / ``inject`` / ``arrive`` / ``forward``, added by
      the observer itself (``ser_ns`` is the incoming link's occupancy
      on ``arrive``, else 0),
    - :meth:`finish`  at delivery (stores the chain, applies retention).

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
        if type(capacity) is not int or capacity < 1:
            raise ValueError(f"capacity must be >= 1 and an int, got {capacity!r}")
        self.policy = policy
        self.rate = rate
        self.capacity = capacity
        self.seed = seed
        self.metrics = metrics
        #: Retained traces, newest kept (like the event ring, Trace).
        #: :meth:`finish` appends the flat chain with
        #: ``_HEADER_FIELDS`` copied off the packet (which its factory
        #: recycles right after delivery) onto its end; :attr:`records`
        #: checks the entries still in that form and turns them into
        #: :class:`SpanTrace`s, in place.
        self._ring: Deque[Any] = deque(maxlen=capacity)
        self.sampled = 0
        self.unsampled = 0
        self.completed = 0
        self.misses = 0
        self.dropped = 0
        #: Per-flow head-sampling state, ``flow_id -> [word, rest, drawn]``:
        #: the current word of the flow's decisions and the rest of its
        #: block (unread bits above a marker bit, lowest bit next) and the
        #: draws its stream has made.  The stream, derived from (seed,
        #: flow_id) so adding flows never perturbs the draws of existing
        #: ones, lives only inside :meth:`_next_word`.
        self._flows: Dict[int, List[int]] = {}
        self._m_retained_by_class: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # hot-path hooks (the observer guards with `pkt.traced`)
    # ------------------------------------------------------------------
    def begin(self, pkt: Any, t_ns: int, node: str) -> None:
        """Packet born at the source NIC: decide sampling, open the chain."""
        if self.policy == "head":
            flow = self._flows.get(pkt.flow_id)
            if flow is None:
                # Forgetting a flow would reset its draw position and
                # perturb its sampling; determinism requires one record
                # per flow ever seen.
                # An empty word, an empty block, nothing drawn yet.
                flow = self._flows[pkt.flow_id] = [1, 1, 0]  # simlint: allow-unbounded-keyed-growth
            word = flow[0]
            if word == 1:
                word = self._next_word(flow, pkt.flow_id)
            flow[0] = word >> 1
            if not word & 1:
                self.unsampled += 1
                return
        self.sampled += 1
        pkt.traced = ["submit", node, t_ns, 0]

    def _next_word(self, flow: List[int], flow_id: int) -> int:
        """The next word of ``flow``'s decisions (marker bit included),
        drawing the flow's next block first if its last one is read."""
        rest = flow[1]
        if rest == 1:
            drawn = flow[2]
            stream = local_stream(f"obs.tracing.flow{flow_id}", self.seed)
            for _ in range(drawn // _WORD):
                stream.getrandbits(_WORD_SKIP_BITS)
            draw = stream.random
            rate = self.rate
            bits = ["1" if draw() < rate else "0" for _ in range(drawn + _WORD)]
            bits.append("1")  # the marker, above the last decision
            bits.reverse()  # the first decision is the lowest bit
            rest = int("".join(bits), 2)
            flow[2] = drawn + drawn + _WORD
        flow[1] = rest >> _WORD
        return rest & _WORD_MASK | _WORD_MARK

    def finish(self, pkt: Any, t_ns: int, *, node: str, link: Any, slack_ns: int) -> None:
        """Packet delivered: close the chain, apply retention.  The chain
        is checked when :attr:`records` reads it, if it is still
        retained then."""
        chain = pkt.traced
        if not chain:
            return
        self.completed += 1
        missed = slack_ns < 0
        if missed:
            self.misses += 1
        if self.policy == "tail" and not missed:
            return
        chain += ("deliver", node, t_ns, link.occupancy_ns(pkt.size))
        chain += (
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
        )
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest
        ring.append(chain)
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
        """The retained traces, oldest first.  Reading checks and builds
        the :class:`SpanTrace` of every entry added since the last read
        (at most ``capacity`` of them, however many packets were
        delivered); a malformed chain raises :class:`ValueError` here,
        and again on every later read.  A chain the ring evicted before
        it was read is never checked."""
        ring = self._ring
        # Built entries are a prefix: finish() only ever appends raw ones,
        # and building oldest first keeps it one when a check raises.
        start = len(ring)
        while start and type(ring[start - 1]) is list:
            start -= 1
        for index in range(start, len(ring)):
            chain = ring[index]
            end = len(chain) - _N_HEADER
            _check_chain(chain, end)
            header = dict(zip(_HEADER_FIELDS, chain[end:]))
            del chain[end:]
            ring[index] = SpanTrace(**header, spans=_build_spans(chain))
        return ring

    @property
    def inflight(self) -> int:
        """Open chains: sampled packets submitted but not yet delivered."""
        return self.sampled - self.completed

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
            "inflight": self.inflight,
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
    raises :class:`ValueError` when the file is not a span dump or a
    trace in it does not :meth:`~SpanTrace.verify` (a dump is input)."""
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
    try:
        for trace in traces:
            trace.verify()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
