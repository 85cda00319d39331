"""Differential proof: head sampling from per-flow decision bits ==
head sampling from one live ``RandomStream`` per flow
(``tests/obs/stream_tracer.py``, the replaced ``begin`` kept as the
oracle).

``PacketTracer.begin`` draws a flow's decisions ahead in doubling blocks
and re-derives the flow's stream, skipped past the draws already made,
for each new block.  On random interleavings of up to five flows, some
long enough to need a fourth block, both tracers must make the same
decision on every ``begin`` call and end with the same ``sampled`` and
``unsampled`` counts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracing import PacketTracer
from tests.helpers import mkpkt
from tests.obs.stream_tracer import StreamTracer

RATES = (0.0, 0.01, 0.3, 0.97, 1.0)

#: A flow this long has read past its first three blocks (64 + 128 + 256
#: decisions), so its stream was re-derived and skipped three times.
PAST_THREE_BLOCKS = 64 + 128 + 256 + 1


def _decisions(tracer, flow_ids):
    out = []
    for t_ns, flow_id in enumerate(flow_ids):
        pkt = mkpkt(10**9, size=10, flow_id=flow_id)
        tracer.begin(pkt, t_ns, "h0")
        out.append(bool(pkt.traced))
    return out


def _same_decisions(seed, rate, flow_ids):
    bits = PacketTracer(policy="head", rate=rate, seed=seed, capacity=16)
    streams = StreamTracer(policy="head", rate=rate, seed=seed, capacity=16)
    assert _decisions(bits, flow_ids) == _decisions(streams, flow_ids)
    assert (bits.sampled, bits.unsampled) == (streams.sampled, streams.unsampled)
    assert bits.sampled + bits.unsampled == len(flow_ids)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rate=st.sampled_from(RATES),
    flows=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 2 * PAST_THREE_BLOCKS)),
        min_size=1,
        max_size=5,
        unique_by=lambda flow: flow[0],
    ),
    long_flow=st.integers(PAST_THREE_BLOCKS, 2 * PAST_THREE_BLOCKS),
    order=st.randoms(use_true_random=False),
)
def test_decision_bits_sample_what_the_streams_sampled(seed, rate, flows, long_flow, order):
    flows[0] = (flows[0][0], long_flow)
    flow_ids = [flow_id for flow_id, length in flows for _ in range(length)]
    order.shuffle(flow_ids)
    _same_decisions(seed, rate, flow_ids)


def test_a_long_flow_reads_eight_blocks():
    # 20 000 packets end in the ninth block (blocks end at 64 * (2**k - 1)).
    flow_ids = [7] * 20_000
    random.Random(5).shuffle(flow_ids)
    _same_decisions(11, 0.3, flow_ids)
