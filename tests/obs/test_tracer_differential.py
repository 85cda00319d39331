"""Differential proof: the tracer that builds ``SpanTrace``s on read ==
the one that built them in ``finish`` (``tests/obs/eager_tracer.py``, the
replaced code kept as the oracle).

``PacketTracer.finish`` stores every completed chain raw; ``records``
checks and builds the ``SpanTrace``s of what the ring still holds.  The
45 GOLDEN cases of ``test_observer_equivalence.py`` run at a capacity
nothing is evicted from, so the cases here run small rings: both policies
on the fig2/fig3/fig4 ``tiny`` configs must export the same bytes and the
same ledger (``dropped``, ``retained``, ``inflight``) as the oracle,
build no more ``SpanTrace``s than the ring holds, reject a malformed
chain with the oracle's message (the oracle from ``finish``, the shipped
tracer from ``records``), and hold nothing of a packet its factory
recycles.
"""

import io

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.experiments.presets import make_topology
from repro.experiments.runner import run_experiment
from repro.network.fabric import Fabric
from repro.obs import tracing
from repro.obs.tracing import PacketTracer, write_spans_jsonl
from repro.sim.rng import RandomStreams
from repro.traffic.mix import build_mix
from tests.helpers import mkpkt
from tests.obs.eager_tracer import EagerTracer
from tests.obs.test_tracing import LINK
from tests.sim.test_engine_differential import _figure_configs

SMALL_RINGS = {
    "head": dict(policy="head", rate=1.0, capacity=64),
    "tail": dict(policy="tail", capacity=8),
}


def _spans_jsonl(tracer):
    buf = io.StringIO()
    write_spans_jsonl(tracer, buf)
    return buf.getvalue()


@pytest.mark.parametrize("ring", sorted(SMALL_RINGS))
@pytest.mark.parametrize("figure", sorted(_figure_configs()))
def test_build_on_read_equals_build_in_finish(figure, ring):
    config = _figure_configs()[figure]
    lazy = PacketTracer(seed=7, **SMALL_RINGS[ring])
    eager = EagerTracer(seed=7, **SMALL_RINGS[ring])
    run_experiment(config, tracer=lazy)
    run_experiment(config, tracer=eager)
    assert lazy.snapshot() == eager.snapshot()
    assert lazy.dropped > 0, "ring never filled; the case covers no eviction"
    assert _spans_jsonl(lazy) == _spans_jsonl(eager)
    for record in lazy.records:
        record.verify()


def test_only_retained_chains_are_ever_built(monkeypatch):
    built = []

    class CountedSpanTrace(tracing.SpanTrace):
        __slots__ = ()

        def __init__(self, **fields):
            built.append(fields["uid"])
            super().__init__(**fields)

    monkeypatch.setattr(tracing, "SpanTrace", CountedSpanTrace)
    tracer = PacketTracer(policy="head", rate=1.0, capacity=8, seed=7)
    run_experiment(_figure_configs()["fig3-video"], tracer=tracer)
    assert tracer.completed >= 200 and not built
    assert sorted(record.uid for record in tracer.records) == sorted(built)
    _spans_jsonl(tracer)  # a second read builds nothing more
    assert len(built) == 8


MALFORMED = {
    "unknown kind": (("teleport", "", 5, 0), "unknown lifecycle event kind 'teleport'"),
    "time runs backwards": (("inject", "", -1, 0), r"event 'inject' at t=-1 precedes t=0"),
    "serialization too long": (
        ("arrive", "sw0", 3, 10),
        r"serialization 10ns does not fit the 3ns wire segment into 'sw0'",
    ),
}


@pytest.mark.parametrize("tracer_class", [PacketTracer, EagerTracer])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_chain_raises_from_finish(case, tracer_class):
    bad_event, message = MALFORMED[case]
    tracer = tracer_class(policy="head", rate=1.0, capacity=8)
    pkt = mkpkt(5, size=10)
    tracer.begin(pkt, 0, "h0")
    pkt.traced += bad_event
    # The oracle checks in finish; the shipped tracer when records is read.
    with pytest.raises(ValueError, match=message):
        tracer.finish(pkt, 100, node="h1", link=LINK, slack_ns=-95)
        tracer.records
    assert tracer.inflight == 0


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_chain_is_refused_on_every_read(case):
    bad_event, message = MALFORMED[case]
    tracer = PacketTracer(policy="head", rate=1.0, capacity=8)
    bad, good = mkpkt(5, size=10), mkpkt(5, size=10)
    tracer.begin(bad, 0, "h0")
    bad.traced += bad_event
    tracer.finish(bad, 100, node="h1", link=LINK, slack_ns=-95)
    tracer.begin(good, 0, "h0")
    tracer.finish(good, 100, node="h1", link=LINK, slack_ns=-95)
    for _ in range(2):  # the refused chain, and all after it, stay as stored
        with pytest.raises(ValueError, match=message):
            tracer.records
    assert tracer.snapshot()["retained"] == 2


def test_a_chain_evicted_unread_is_never_checked():
    tracer = PacketTracer(policy="head", rate=1.0, capacity=1)
    bad = mkpkt(5, size=10)
    tracer.begin(bad, 0, "h0")
    bad.traced += MALFORMED["unknown kind"][0]
    tracer.finish(bad, 100, node="h1", link=LINK, slack_ns=-95)
    good = mkpkt(5, size=10)
    tracer.begin(good, 0, "h0")
    tracer.finish(good, 100, node="h1", link=LINK, slack_ns=-95)
    assert tracer.dropped == 1
    [record] = tracer.records
    record.verify()


def _spans_with_pooling(packet_pooling):
    """``run_experiment`` always pools; build the fabric by hand to get
    the same run with every packet a fresh object."""
    config = _figure_configs()["fig3-video"]
    tracer = PacketTracer(policy="head", rate=1.0, capacity=64, seed=7)
    fabric = Fabric(
        make_topology(config.topology),
        ARCHITECTURES[config.architecture],
        config.params,
        tracer=tracer,
        packet_pooling=packet_pooling,
    )
    mix = build_mix(fabric, RandomStreams(config.seed), config.mix_config)
    mix.start()
    fabric.run(until=config.end_ns)
    mix.stop()
    return _spans_jsonl(tracer), fabric.packet_factory.pooled


def test_ring_holds_nothing_of_a_recycled_packet():
    # Host.accept recycles the packet one statement after obs.deliver, and
    # the ring is read long after: an entry that kept ``pkt`` instead of
    # copying its scalars would export whatever packet reused the storage.
    pooled, on_free_list = _spans_with_pooling(True)
    fresh, _ = _spans_with_pooling(False)
    assert on_free_list > 0, "no packet was recycled; the case covers nothing"
    assert pooled == fresh
