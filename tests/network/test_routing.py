"""Tests for up*/down* fixed routing."""

import random

import pytest

from repro.experiments.presets import make_topology
from repro.network.routing import RoutingTable, compute_updown_paths
from repro.network.topology import (
    FatTreeSpec,
    TopologyError,
    build_fat_tree,
    build_folded_shuffle_min,
)
from tests.network import updown_oracle


@pytest.fixture
def topo():
    return build_folded_shuffle_min(4, 4, 4)  # 16 hosts


class TestPathEnumeration:
    def test_same_leaf_single_two_hop_path(self, topo):
        paths = compute_updown_paths(topo, 0, 1)  # both under sw0.0
        assert len(paths) == 1
        (path,) = paths
        assert path.nodes == ("h0", "sw0.0", "h1")
        assert path.hops == 1

    def test_cross_leaf_one_path_per_spine(self, topo):
        paths = compute_updown_paths(topo, 0, 15)
        assert len(paths) == 4  # 4 spines
        for path in paths:
            assert len(path.nodes) == 5  # h, leaf, spine, leaf, h
            assert path.nodes[0] == "h0" and path.nodes[-1] == "h15"

    def test_paths_are_minimal_up_down(self, topo):
        for path in compute_updown_paths(topo, 0, 12):
            levels = []
            for node in path.nodes[1:-1]:
                levels.append(topo.levels[node])
            # strictly up then strictly down: no valleys
            peak = levels.index(max(levels))
            assert levels[: peak + 1] == sorted(levels[: peak + 1])
            assert levels[peak:] == sorted(levels[peak:], reverse=True)

    def test_ports_follow_wiring(self, topo):
        for path in compute_updown_paths(topo, 0, 15):
            # Replay the source route and confirm we land on the dst host.
            node = path.nodes[1]  # first switch
            for hop, port in enumerate(path.ports):
                peer, _ = topo.peer(node, port)
                node = peer
            assert node == "h15"

    def test_links_include_endpoint_links(self, topo):
        (path,) = compute_updown_paths(topo, 0, 1)
        assert path.links[0] == ("h0", 0)
        assert path.links[-1][0] == "sw0.0"

    def test_self_pair_rejected(self, topo):
        with pytest.raises(ValueError):
            compute_updown_paths(topo, 3, 3)

    def test_deterministic_order(self, topo):
        first = compute_updown_paths(topo, 0, 15)
        second = compute_updown_paths(topo, 0, 15)
        assert [p.nodes for p in first] == [p.nodes for p in second]

    def test_all_pairs_reachable(self, topo):
        n = topo.n_hosts
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    assert compute_updown_paths(topo, src, dst)


class TestFatTreeRouting:
    def test_three_level_paths(self):
        topo = build_fat_tree(FatTreeSpec(arity=2, levels=3))
        paths = compute_updown_paths(topo, 0, 7)  # opposite halves: full ascent
        assert len(paths) == 4  # 2 choices per up hop, 2 hops up
        for path in paths:
            assert len(path.nodes) == 2 + 5  # hosts + 5 switches

    def test_sibling_hosts_short_path(self):
        topo = build_fat_tree(FatTreeSpec(arity=2, levels=3))
        paths = compute_updown_paths(topo, 0, 1)
        assert len(paths) == 1
        assert paths[0].hops == 1


class TestRoutingTable:
    def test_caching_returns_same_tuple(self, topo, monkeypatch):
        """What is cached is the switch-level walks, once per pair of
        attach switches -- not the host pair's paths."""
        table = RoutingTable(topo)
        enumerated = []
        enumerate_segments = table._enumerate
        monkeypatch.setattr(
            table,
            "_enumerate",
            lambda *switches: enumerated.append(switches) or enumerate_segments(*switches),
        )
        first = table.candidates(0, 5)  # sw0.0 -> sw0.1
        again = table.candidates(0, 5)
        sibling = table.candidates(1, 6)  # other hosts, same two attach switches
        assert enumerated == [("sw0.0", "sw0.1")]
        assert first._segments is again._segments is sibling._segments
        assert first.varying is sibling.varying and first.shared != sibling.shared
        assert list(first) == list(again) and first[0] is not again[0]  # built, not kept

    def test_callable_alias(self, topo):
        table = RoutingTable(topo)
        assert list(table(0, 5)) == list(table.candidates(0, 5))
        assert len(table(0, 5)) == 4 and table(0, 5).path(3) == table.candidates(0, 5)[3]

    def test_deadlock_freedom_no_up_after_down(self, topo):
        """up*/down*: once a path descends it never ascends again, which
        breaks every cyclic channel dependency in the MIN."""
        table = RoutingTable(topo)
        for src in range(topo.n_hosts):
            for dst in range(topo.n_hosts):
                if src == dst:
                    continue
                for path in table.candidates(src, dst):
                    switches = path.nodes[1:-1]
                    levels = [topo.levels[s] for s in switches]
                    descended = False
                    for a, b in zip(levels, levels[1:]):
                        if b < a:
                            descended = True
                        if b > a:
                            assert not descended, f"up after down in {path.nodes}"


def _assert_same_as_oracle(topo, pairs):
    """Equal ``(nodes, ports, links)`` tuples, in the same order (the
    order is admission's tie-break, so it is part of the contract)."""
    table = RoutingTable(topo)
    for src, dst in pairs:
        expected = updown_oracle.compute_updown_paths(topo, src, dst)
        got = table.candidates(src, dst)
        assert [(p.src, p.dst, p.nodes, p.ports, p.links, p.hops) for p in got] == [
            (p.src, p.dst, p.nodes, p.ports, p.links, p.hops) for p in expected
        ], f"{topo.name}: {src}->{dst}"


def _all_pairs(n):
    return [(src, dst) for src in range(n) for dst in range(n) if src != dst]


class TestAgainstPerPairOracle:
    """Segment-sharing routing == the per-host-pair enumeration it replaced."""

    @pytest.mark.parametrize("preset", ["tiny", "small", "paper"])
    def test_every_pair_of_preset(self, preset):
        topo = make_topology(preset)
        _assert_same_as_oracle(topo, _all_pairs(topo.n_hosts))

    def test_seeded_sample_of_scale512(self):
        topo = make_topology("scale512")
        rng = random.Random(512)
        pairs = [tuple(rng.sample(range(topo.n_hosts), 2)) for _ in range(2_000)]
        # the sample covers same-leaf pairs as well as cross-leaf ones
        assert any(src // 16 == dst // 16 for src, dst in pairs)
        _assert_same_as_oracle(topo, pairs)

    @pytest.mark.parametrize("arity", [2, 4])
    def test_three_level_fat_tree(self, arity):
        """Every pair: same-leaf, same-subtree and full-ascent alike."""
        topo = build_fat_tree(FatTreeSpec(arity=arity, levels=3))
        table = RoutingTable(topo)
        n = topo.n_hosts
        hops = {table.candidates(0, dst)[0].hops for dst in range(1, n)}
        assert hops == {1, 3, 5}
        _assert_same_as_oracle(topo, _all_pairs(n))

    def test_unreachable_pair_raises_like_the_oracle(self):
        topo = build_folded_shuffle_min(2, 2, 1)
        # cut leaf 1 off the only spine
        topo.ports["sw0.1"][2] = None
        topo.ports["sw1.0"][1] = None
        with pytest.raises(TopologyError):
            updown_oracle.compute_updown_paths(topo, 0, 3)
        with pytest.raises(TopologyError):
            RoutingTable(topo).candidates(0, 3)
