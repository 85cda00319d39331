"""Property test: the host's injection order is online-EDF.

Section 3.2's cornerstone assumption is that traffic leaves each source
"in ascending order of deadline".  Precisely: whenever the NIC picks a
packet to inject, it picks the minimum-deadline packet among those
*currently ready* on that VC.  Hypothesis drives random flow sets and
submission schedules and checks the resulting injection sequence against
that online property (which is weaker than globally sorted -- a packet
that arrives after a worse one left cannot be un-sent, which is exactly
how order errors are born downstream).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import ADVANCED_2VC, TRADITIONAL_2VC
from repro.core.flow import FlowKind, FlowRegistry
from repro.network.host import Host
from repro.network.link import Link
from repro.sim.engine import Engine


class Sink:
    def __init__(self):
        self.order = []  # (inject_time, vc, deadline, uid, birth)

    def accept(self, pkt, link):
        self.order.append((pkt.inject, pkt.vc, pkt.deadline, pkt.uid, pkt.birth))
        link.return_credit(pkt.vc, pkt.size)


@st.composite
def schedules(draw):
    n_flows = draw(st.integers(1, 4))
    flows = []
    for _ in range(n_flows):
        flows.append(
            dict(
                bw=draw(st.sampled_from([0.001, 0.01, 0.1, 1.0])),
                vc=draw(st.sampled_from([0, 1])),
            )
        )
    n_msgs = draw(st.integers(1, 20))
    messages = [
        (
            draw(st.integers(0, 50_000)),  # submit time
            draw(st.integers(0, n_flows - 1)),  # flow index
            draw(st.integers(64, 4096)),  # size
        )
        for _ in range(n_msgs)
    ]
    return flows, messages


def run_host(architecture, flows, messages):
    engine = Engine()
    host = Host(
        engine, "h0", 0, architecture, eligible_offset_ns=None, mtu=2048
    )
    sink = Sink()
    link = Link(
        engine,
        src="h0",
        src_port=0,
        dst="sink",
        dst_port=0,
        bytes_per_ns=1.0,
        prop_delay_ns=0,
        buffer_bytes_per_vc=(8192, 8192),
    )
    link.receiver = sink
    host.attach_out(link)
    registry = FlowRegistry()
    states = [
        registry.create(
            src=0, dst=1, tclass="t", kind=FlowKind.RATE,
            vc=f["vc"], bw_bytes_per_ns=f["bw"],
        )
        for f in flows
    ]
    for when, flow_index, size in messages:
        engine.at(when, host.submit_message, states[flow_index], size)
    engine.run_all()
    return sink.order


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_edf_host_injects_online_minimum(batch):
    flows, messages = batch
    order = run_host(ADVANCED_2VC, flows, messages)
    # Online EDF: if q was already ready (born strictly before) when p was
    # injected, and q went out later on the same VC, then p had the better
    # (deadline, uid).  Strict: two submissions can share a timestamp, and
    # the first is injected onto the idle wire before the second exists.
    for i, (t_p, vc_p, d_p, uid_p, _) in enumerate(order):
        for t_q, vc_q, d_q, uid_q, birth_q in order[i + 1 :]:
            if vc_q != vc_p:
                continue
            if birth_q < t_p:
                assert (d_p, uid_p) <= (d_q, uid_q), (
                    f"injected deadline {d_p} while ready packet with "
                    f"deadline {d_q} waited"
                )


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_traditional_host_injects_fifo_per_vc(batch):
    flows, messages = batch
    order = run_host(TRADITIONAL_2VC, flows, messages)
    for vc in (0, 1):
        uids = [uid for _, v, _, uid, _ in order if v == vc]
        # uid order == creation order == submission order per VC.
        assert uids == sorted(uids)


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_vc0_never_waits_behind_vc1(batch):
    """Absolute priority at the source: when a VC0 packet was ready and the
    link picked anything, it picked VC0 (credits permitting -- unlimited
    here because the sink auto-credits)."""
    flows, messages = batch
    order = run_host(ADVANCED_2VC, flows, messages)
    for i, (t_p, vc_p, *_rest) in enumerate(order):
        if vc_p != 1:
            continue
        for t_q, vc_q, d_q, uid_q, birth_q in order[i + 1 :]:
            if vc_q == 0 and birth_q < t_p:
                raise AssertionError(
                    "best-effort packet injected while regulated traffic was ready"
                )
