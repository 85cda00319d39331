"""Randomized whole-fabric fuzzing.

Hypothesis generates small random topologies (folded MINs and k-ary
n-trees), random flow sets, and random message patterns, runs them to
quiescence under a random architecture, and checks the invariants that
must hold for *any* configuration:

- every submitted packet is delivered exactly once (lossless, no dupes);
- per-flow FIFO delivery;
- all credit counters return to their initial values;
- every switch's backlogged lists name exactly its non-empty VOQs, and
  every link's ``backlog`` (switch output or host NIC) is the number of
  packets its sender holds for it;
- deterministic replay: the same drawn scenario produces the same
  deliveries;
- arbiter differential: the scanning oracle pickers
  (``tests/core/scanning_pickers.py``) produce the same deliveries --
  polling the placeholder in every VOQ slot no packet has needed;
- VOQ differential: with every VOQ built before the first packet
  (``tests/network/dense_voqs.py``) the deliveries are the same;
- wake-up differential: with every link waking its sender on every
  tx-done and credit (``tests/network/eager_wakeups.py``) the deliveries
  and the number of events executed are the same.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.architectures import ARCHITECTURES
from repro.core.flow import FlowKind
from repro.network.fabric import Fabric, FabricParams
from repro.network.topology import FatTreeSpec, build_fat_tree, build_folded_shuffle_min
from tests.core.scanning_pickers import with_scanning_pickers
from tests.network.dense_voqs import materialise_every_voq
from tests.network.eager_wakeups import install_eager_wakeups


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["min", "fattree"]))
    if kind == "min":
        leaves = draw(st.integers(2, 4))
        hosts = draw(st.integers(2, 4))
        spines = draw(st.integers(1, 4))
        topo = build_folded_shuffle_min(leaves, hosts, spines)
    else:
        arity = draw(st.integers(2, 3))
        levels = draw(st.integers(2, 3))
        topo = build_fat_tree(FatTreeSpec(arity, levels))
    n = topo.n_hosts
    arch = draw(st.sampled_from(sorted(ARCHITECTURES)))
    n_flows = draw(st.integers(1, 6))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 2))
        if dst >= src:
            dst += 1
        vc = draw(st.sampled_from([0, 1]))
        messages = draw(
            st.lists(
                st.tuples(st.integers(0, 50_000), st.integers(1, 10_000)),
                min_size=1,
                max_size=5,
            )
        )
        flows.append((src, dst, vc, messages))
    return topo, arch, flows


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_random_fabrics_preserve_invariants(scenario):
    topo, arch, flows = scenario

    def run(architecture=ARCHITECTURES[arch], dense=False, eager=False):
        fabric = Fabric(topo, architecture, FabricParams())
        if dense:
            materialise_every_voq(fabric)
        if eager:
            install_eager_wakeups(fabric)
        deliveries: list[tuple[int, int, int]] = []
        fabric.subscribe_delivery(
            lambda p, t: deliveries.append((p.flow_id, p.seq, t))
        )
        for src, dst, vc, messages in flows:
            flow = fabric.open_flow(
                src,
                dst,
                tclass="fuzz",
                kind=FlowKind.RATE,
                vc=vc,
                bw_bytes_per_ns=0.05,
            )
            for at, size in messages:
                fabric.engine.at(at, fabric.submit, flow, size)
        fabric.engine.run(max_events=5_000_000)
        for switch in fabric.switches.values():
            switch.check_backlogged()
        for host in fabric.hosts:
            host.check_backlog()
        return fabric, deliveries

    fabric, deliveries = run()

    # Lossless, exactly-once.
    submitted = sum(h.packets_submitted for h in fabric.hosts)
    assert len(deliveries) == submitted
    assert len({(f, s) for f, s, _ in deliveries}) == submitted

    # Per-flow FIFO.
    last: dict[int, int] = {}
    for flow_id, seq, _ in deliveries:
        assert seq > last.get(flow_id, -1)
        last[flow_id] = seq

    # Credits fully restored at quiescence.
    for link in fabric.links.values():
        assert link.channel.credits == list(link.channel.initial)

    # Determinism: replaying the same scenario reproduces the deliveries.
    _, again = run()
    assert again == deliveries

    # Arbiter differential: polling every head grants the same inputs.
    _, scanned = run(with_scanning_pickers(ARCHITECTURES[arch]))
    assert scanned == deliveries

    # VOQ differential: when a queue came to exist changes nothing.
    _, dense = run(dense=True)
    assert dense == deliveries

    # Wake-up differential: polling a sender with nothing queued for the
    # link decides nothing, and a poll is never an event.
    eager_fabric, eager = run(eager=True)
    assert eager == deliveries
    assert eager_fabric.engine.events_executed == fabric.engine.events_executed
