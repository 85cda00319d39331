"""Tests for the topology builders."""

import pytest

from repro.network.topology import (
    FatTreeSpec,
    TopologyError,
    build_fat_tree,
    build_folded_shuffle_min,
    paper_topology,
)


class TestFoldedMin:
    def test_paper_topology_dimensions(self):
        topo = paper_topology()
        assert topo.n_hosts == 128
        assert len(topo.switch_ids) == 16 + 8
        # Section 4.1: all switches implement 16 ports.
        for sw in topo.switch_ids:
            assert topo.radix(sw) == 16

    def test_small_instance_wiring(self):
        topo = build_folded_shuffle_min(4, 2, 3)
        assert topo.n_hosts == 8
        leaves = [s for s in topo.switch_ids if topo.levels[s] == 0]
        spines = [s for s in topo.switch_ids if topo.levels[s] == 1]
        assert len(leaves) == 4 and len(spines) == 3
        # Each leaf reaches every spine exactly once.
        for leaf in leaves:
            up_neighbors = [n for n in topo.neighbors(leaf) if n in spines]
            assert sorted(up_neighbors) == sorted(spines)

    def test_validation_passes(self):
        build_folded_shuffle_min(4, 4, 4).validate()

    def test_every_host_has_one_port(self):
        topo = build_folded_shuffle_min(2, 3, 2)
        for host in topo.host_ids:
            assert topo.radix(host) == 1

    def test_directed_links_count(self):
        # hosts*2 (up+down) + leaves*spines*2
        topo = build_folded_shuffle_min(4, 2, 3)
        links = list(topo.directed_links())
        assert len(links) == 8 * 2 + 4 * 3 * 2

    def test_port_to(self):
        topo = build_folded_shuffle_min(2, 2, 2)
        assert topo.port_to("h0", "sw0.0") == 0
        # host ports on the leaf come first, then uplinks
        assert topo.port_to("sw0.0", "h0") == 0
        assert topo.port_to("sw0.0", "sw1.1") == 3

    def test_port_to_unknown_neighbor(self):
        topo = build_folded_shuffle_min(2, 2, 2)
        with pytest.raises(TopologyError):
            topo.port_to("h0", "h1")

    def test_bad_parameters(self):
        with pytest.raises(TopologyError):
            build_folded_shuffle_min(0, 4, 4)

    def test_host_index_roundtrip(self):
        topo = build_folded_shuffle_min(2, 2, 2)
        for i, host in enumerate(topo.host_ids):
            assert topo.host_index(host) == i
            assert topo.host_id(i) == host


class TestFatTree:
    def test_two_level_dimensions(self):
        topo = build_fat_tree(FatTreeSpec(arity=4, levels=2))
        assert topo.n_hosts == 16
        assert len(topo.switch_ids) == 2 * 4  # two stages of k^(n-1)

    def test_three_level_dimensions(self):
        topo = build_fat_tree(FatTreeSpec(arity=2, levels=3))
        assert topo.n_hosts == 8
        assert len(topo.switch_ids) == 3 * 4
        topo.validate()

    def test_top_stage_has_only_down_ports(self):
        topo = build_fat_tree(FatTreeSpec(arity=3, levels=2))
        tops = [s for s in topo.switch_ids if topo.levels[s] == 1]
        for sw in tops:
            assert topo.radix(sw) == 3

    def test_every_port_is_wired(self):
        topo = build_fat_tree(FatTreeSpec(arity=2, levels=3))
        for node, plist in topo.ports.items():
            assert all(ref is not None for ref in plist), f"unwired port on {node}"

    def test_bad_spec(self):
        with pytest.raises(TopologyError):
            FatTreeSpec(arity=1, levels=2)
        with pytest.raises(TopologyError):
            FatTreeSpec(arity=4, levels=0)


def _hops_from(topo, start):
    """Breadth-first hop counts from ``start`` over the wired ports."""
    adjacent = {}
    for src, _, dst, _ in topo.directed_links():
        adjacent.setdefault(src, set()).add(dst)
    hops, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in adjacent.get(node, ()):
                if peer not in hops:
                    hops[peer] = hops[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return hops


def _nodes(topo):
    return set(topo.host_ids) | set(topo.switch_ids)


class TestNetworkxView:
    """The graph facts, walked over ``directed_links()`` (wiring is
    symmetric, so reaching every node from one is connectivity)."""

    def test_graph_is_connected_with_right_counts(self):
        topo = build_folded_shuffle_min(4, 4, 4)
        assert len(_nodes(topo)) == 16 + 8
        assert set(_hops_from(topo, topo.host_ids[0])) == _nodes(topo)

    def test_fat_tree_graph_connected(self):
        topo = build_fat_tree(FatTreeSpec(arity=2, levels=3))
        assert set(_hops_from(topo, topo.host_ids[0])) == _nodes(topo)

    def test_min_diameter(self):
        # host -> leaf -> spine -> leaf -> host: diameter 4 in graph hops.
        topo = build_folded_shuffle_min(4, 4, 4)
        assert max(max(_hops_from(topo, node).values()) for node in _nodes(topo)) == 4
