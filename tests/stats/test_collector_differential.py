"""The one-frame delivery record against the recording it replaced.

Random delivery streams -- several classes and flows, multi-part
messages delivered in any order, births on both sides of the warm-up
cut, reservoirs small enough to reach their sampling phase -- go through
:meth:`MetricsCollector.on_delivery` and through the oracle in
``collector_oracle.py``.  Every accumulator must end bit-identical:
Welford's floats compare with ``==`` on the same operations in the same
order, and the reservoirs draw the same numbers from the same stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.collectors import MetricsCollector
from tests.helpers import mkpkt
from tests.stats.collector_oracle import OracleCollector

_message = st.tuples(
    st.sampled_from(["control", "video", "bulk"]),  # tclass
    st.integers(1, 4),  # flow_id
    st.integers(1, 4),  # parts
    st.integers(0, 3_000),  # birth
    st.lists(st.integers(0, 5_000), min_size=4, max_size=4),  # delay of each part
)


@st.composite
def deliveries(draw):
    """``(packet, now)`` pairs: whole messages, parts shuffled together."""
    messages = draw(st.lists(_message, max_size=40))
    items = []
    next_msg = {}
    for tclass, flow_id, parts, birth, delays in messages:
        msg_id = next_msg.get(flow_id, 0)
        next_msg[flow_id] = msg_id + 1
        for part in range(parts):
            pkt = mkpkt(
                0, tclass=tclass, flow_id=flow_id, birth=birth, size=64 * (part + 1),
                msg_id=msg_id, msg_seq=part, msg_parts=parts,
            )
            items.append((pkt, birth + delays[part]))
    return draw(st.permutations(items))


def _state(collector):
    def running(stats):
        return (stats.count, stats.mean, stats._m2, stats.min, stats.max)

    def reservoir(sample):
        return (sample.seen, list(sample.items))

    return collector.dropped_warmup, {
        tclass: (
            stats.packets, stats.bytes, stats.messages,
            running(stats.packet_latency), running(stats.message_latency),
            running(stats.jitter),
            reservoir(stats.packet_reservoir), reservoir(stats.message_reservoir),
            dict(stats._open_messages), dict(stats._last_message_latency),
        )
        for tclass, stats in collector.classes.items()
    }


@settings(max_examples=300, deadline=None)
@given(
    stream=deliveries(),
    warmup=st.sampled_from([0, 1_000, 2_500]),
    capacity=st.integers(1, 6),
)
def test_one_frame_record_matches_the_oracle(stream, warmup, capacity):
    collector = MetricsCollector(warmup_ns=warmup, reservoir_capacity=capacity)
    oracle = OracleCollector(warmup_ns=warmup, reservoir_capacity=capacity)
    for pkt, now in stream:
        collector.on_delivery(pkt, now)
        oracle.on_delivery(pkt, now)
    assert _state(collector) == _state(oracle)
