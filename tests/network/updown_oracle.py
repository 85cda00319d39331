"""Test oracle: per-host-pair up*/down* enumeration, kept verbatim from
before :class:`repro.network.routing.RoutingTable` shared switch-level
segments between host pairs.

``_paths_up_down`` and ``compute_updown_paths`` re-derive every host
pair's ascents from the raw wiring into the eager, five-field
``RoutePath`` dataclass of the time.  Production routing must return the
same ``(nodes, ports, links)`` in the same order for every pair
(``tests/network/test_routing.py``), and a whole run under
:class:`OracleRoutingTable` must be byte-identical
(``tests/network/test_routing_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.network.routing import LinkId
from repro.network.topology import Topology, TopologyError

__all__ = ["OracleRoutingTable", "RoutePath", "compute_updown_paths"]


@dataclass(frozen=True)
class RoutePath:
    """One fixed path between two hosts."""

    src: int
    dst: int
    #: node ids visited, host to host inclusive.
    nodes: Tuple[str, ...]
    #: output port at each switch along the way (the packet's source route).
    ports: Tuple[int, ...]
    #: directed links traversed, as (sender node, sender port).
    links: Tuple[LinkId, ...]

    @property
    def hops(self) -> int:
        """Number of switches traversed."""
        return len(self.ports)


def _paths_up_down(topo: Topology, src_host: str, dst_host: str) -> List[Tuple[str, ...]]:
    """All minimal up*/down* node sequences between two distinct hosts.

    Walks up from both hosts simultaneously; at the first stage where the
    two ascents can meet in a common switch, each such switch yields one
    path.  In a (folded) MIN the up-neighbour sets are deterministic, so
    this enumerates exactly the minimal paths without a graph search.
    """
    (src_attach,) = [ref for ref in topo.ports[src_host] if ref is not None]
    (dst_attach,) = [ref for ref in topo.ports[dst_host] if ref is not None]
    up_from_src: List[Tuple[str, ...]] = [(src_host, src_attach[0])]
    up_from_dst: List[Tuple[str, ...]] = [(dst_host, dst_attach[0])]

    for _stage in range(len(topo.switch_ids) + 1):
        # Can any src-ascent meet any dst-ascent at its last switch?
        dst_tails: Dict[str, Tuple[str, ...]] = {}
        for d_path in up_from_dst:
            # Keep the first (deterministic) ascent per meeting switch.
            dst_tails.setdefault(d_path[-1], d_path)
        found: List[Tuple[str, ...]] = []
        for s_path in up_from_src:
            meet = s_path[-1]
            if meet in dst_tails:
                down = dst_tails[meet]
                found.append(s_path + tuple(reversed(down[:-1])))
        if found:
            return found

        def ascend(paths: List[Tuple[str, ...]]) -> List[Tuple[str, ...]]:
            grown: List[Tuple[str, ...]] = []
            for path in paths:
                node = path[-1]
                level = topo.levels[node]
                for neighbor in topo.neighbors(node):
                    if not topo.is_host(neighbor) and topo.levels[neighbor] == level + 1:
                        grown.append(path + (neighbor,))
            return grown

        up_from_src = ascend(up_from_src)
        up_from_dst = ascend(up_from_dst)
        if not up_from_src or not up_from_dst:
            break
    raise TopologyError(f"no up*/down* path between {src_host} and {dst_host}")


def compute_updown_paths(topo: Topology, src: int, dst: int) -> Tuple[RoutePath, ...]:
    """All minimal fixed paths from host index ``src`` to host index ``dst``."""
    if src == dst:
        raise ValueError(f"src and dst are the same host ({src})")
    src_host = topo.host_id(src)
    dst_host = topo.host_id(dst)
    routes: List[RoutePath] = []
    for nodes in _paths_up_down(topo, src_host, dst_host):
        ports: List[int] = []
        links: List[LinkId] = []
        for here, there in zip(nodes, nodes[1:]):
            out_port = topo.port_to(here, there)
            links.append((here, out_port))
            if not topo.is_host(here):
                ports.append(out_port)
        routes.append(
            RoutePath(
                src=src,
                dst=dst,
                nodes=tuple(nodes),
                ports=tuple(ports),
                links=tuple(links),
            )
        )
    # Stable order: admission tie-breaks then pick the same path every run.
    routes.sort(key=lambda r: r.nodes)
    return tuple(routes)


class OracleRoutingTable:
    """The per-pair cache that called the enumeration above once per pair."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self._cache: Dict[Tuple[int, int], Tuple[RoutePath, ...]] = {}

    def candidates(self, src: int, dst: int) -> Tuple[RoutePath, ...]:
        key = (src, dst)
        paths = self._cache.get(key)
        if paths is None:
            paths = compute_updown_paths(self.topo, src, dst)
            self._cache[key] = paths
        return paths

    def __call__(self, src: int, dst: int) -> Tuple[RoutePath, ...]:
        return self.candidates(src, dst)
