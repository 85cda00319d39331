"""Topology builders.

The paper evaluates a *butterfly multi-stage interconnection network with
128 endpoints, folded (bidirectional) perfect-shuffle*, built from
16-port switches (Section 4.1).  Folded onto bidirectional links, that
network is exactly a two-level Clos / fat-tree: 16 leaf switches with 8
host ports + 8 uplinks each, and 8 spine switches with 16 down ports
each.  :func:`paper_topology` builds precisely that; the generic
builders let tests and ablations scale the same shape down (or up, or to
more levels via the k-ary n-tree builder).

A :class:`Topology` is a pure description -- nodes, ports, and wiring --
with no simulation state; :mod:`repro.network.fabric` instantiates the
simulation objects from it.

Conventions:

- Hosts are named ``h0..h{N-1}`` and have exactly one port (port 0).
- Switches are named ``sw{level}.{index}``; level 0 is the leaf stage.
- Every cable is a pair of opposite simplex channels; the topology
  stores, per node and port, the ``(peer, peer_port)`` at the far end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "FatTreeSpec",
    "Topology",
    "TopologyError",
    "build_fat_tree",
    "build_folded_shuffle_min",
    "paper_topology",
]


class TopologyError(ValueError):
    """Inconsistent wiring or invalid build parameters."""


PortRef = Tuple[str, int]  # (node id, port index)


@dataclass
class Topology:
    """An immutable-ish wiring description.

    ``ports[node][p]`` is the ``(peer, peer_port)`` connected to port
    ``p`` of ``node``, or ``None`` for an unwired port.
    """

    name: str
    host_ids: Tuple[str, ...]
    switch_ids: Tuple[str, ...]
    ports: Dict[str, List[Optional[PortRef]]]
    #: Stage of each switch (0 = leaf); hosts are implicitly below stage 0.
    levels: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return len(self.host_ids)

    def host_id(self, index: int) -> str:
        return self.host_ids[index]

    def host_index(self, host_id: str) -> int:
        try:
            return self._host_index[host_id]
        except AttributeError:
            self._host_index = {h: i for i, h in enumerate(self.host_ids)}
            return self._host_index[host_id]

    def is_host(self, node: str) -> bool:
        return node.startswith("h")

    def radix(self, node: str) -> int:
        return len(self.ports[node])

    def peer(self, node: str, port: int) -> Optional[PortRef]:
        return self.ports[node][port]

    def port_to(self, node: str, neighbor: str) -> int:
        """The (unique) port of ``node`` wired to ``neighbor``."""
        try:
            lookup = self._port_to
        except AttributeError:
            lookup = self._port_to = {}
            for n, plist in self.ports.items():
                for p, ref in enumerate(plist):
                    if ref is not None:
                        key = (n, ref[0])
                        if key in lookup:
                            raise TopologyError(
                                f"parallel links between {n} and {ref[0]} are not "
                                "supported by port_to(); use explicit ports"
                            )
                        lookup[key] = p
        try:
            return lookup[(node, neighbor)]
        except KeyError:
            raise TopologyError(f"{node} has no port wired to {neighbor}") from None

    def neighbors(self, node: str) -> Iterator[str]:
        for ref in self.ports[node]:
            if ref is not None:
                yield ref[0]

    def directed_links(self) -> Iterator[Tuple[str, int, str, int]]:
        """All simplex channels as ``(src, src_port, dst, dst_port)``."""
        for node, plist in self.ports.items():
            for p, ref in enumerate(plist):
                if ref is not None:
                    yield (node, p, ref[0], ref[1])

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check wiring is symmetric and hosts have exactly one port."""
        for node, plist in self.ports.items():
            for p, ref in enumerate(plist):
                if ref is None:
                    continue
                peer, peer_port = ref
                if peer not in self.ports:
                    raise TopologyError(f"{node}:{p} wired to unknown node {peer}")
                back = self.ports[peer][peer_port]
                if back != (node, p):
                    raise TopologyError(
                        f"asymmetric wiring: {node}:{p} -> {peer}:{peer_port} "
                        f"but {peer}:{peer_port} -> {back}"
                    )
        for host in self.host_ids:
            wired = [ref for ref in self.ports[host] if ref is not None]
            if len(self.ports[host]) != 1 or len(wired) != 1:
                raise TopologyError(f"host {host} must have exactly one wired port")
        for sw in self.switch_ids:
            if sw not in self.levels:
                raise TopologyError(f"switch {sw} has no stage level annotation")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _wire(ports: Dict[str, List[Optional[PortRef]]], a: str, ap: int, b: str, bp: int) -> None:
    if ports[a][ap] is not None or ports[b][bp] is not None:
        raise TopologyError(f"double wiring at {a}:{ap} or {b}:{bp}")
    ports[a][ap] = (b, bp)
    ports[b][bp] = (a, ap)


def build_folded_shuffle_min(
    n_leaves: int,
    hosts_per_leaf: int,
    n_spines: int,
    *,
    name: Optional[str] = None,
) -> Topology:
    """Two-stage folded (bidirectional) MIN: the paper's topology class.

    Every leaf switch wires ``hosts_per_leaf`` hosts below and one uplink
    to *each* spine above (so leaves have ``hosts_per_leaf + n_spines``
    ports and spines have ``n_leaves`` ports).  With (16, 8, 8) this is
    the 128-endpoint, radix-16 folded perfect-shuffle network of
    Section 4.1.
    """
    if n_leaves < 1 or hosts_per_leaf < 1 or n_spines < 1:
        raise TopologyError(
            f"need at least one of each stage, got leaves={n_leaves}, "
            f"hosts/leaf={hosts_per_leaf}, spines={n_spines}"
        )
    if n_leaves == 1 and n_spines > 0:
        # A single leaf would make spines useless but harmless; allow it.
        pass
    host_ids = tuple(f"h{i}" for i in range(n_leaves * hosts_per_leaf))
    leaf_ids = tuple(f"sw0.{i}" for i in range(n_leaves))
    spine_ids = tuple(f"sw1.{i}" for i in range(n_spines))

    ports: Dict[str, List[Optional[PortRef]]] = {}
    for h in host_ids:
        ports[h] = [None]
    for leaf in leaf_ids:
        ports[leaf] = [None] * (hosts_per_leaf + n_spines)
    for spine in spine_ids:
        ports[spine] = [None] * n_leaves

    # Down ports 0..hosts_per_leaf-1 face hosts; up ports follow.
    for li, leaf in enumerate(leaf_ids):
        for hp in range(hosts_per_leaf):
            host = host_ids[li * hosts_per_leaf + hp]
            _wire(ports, leaf, hp, host, 0)
        for si, spine in enumerate(spine_ids):
            _wire(ports, leaf, hosts_per_leaf + si, spine, li)

    topo = Topology(
        name=name or f"folded-min-{n_leaves}x{hosts_per_leaf}x{n_spines}",
        host_ids=host_ids,
        switch_ids=leaf_ids + spine_ids,
        ports=ports,
        levels={**{l: 0 for l in leaf_ids}, **{s: 1 for s in spine_ids}},
    )
    topo.validate()
    return topo


@dataclass(frozen=True)
class FatTreeSpec:
    """Parameters of a k-ary n-tree: ``arity`` down-links per switch,
    ``levels`` switch stages.  Supports ``arity ** levels`` hosts."""

    arity: int
    levels: int

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise TopologyError(f"arity must be >= 2, got {self.arity}")
        if self.levels < 1:
            raise TopologyError(f"levels must be >= 1, got {self.levels}")

    @property
    def n_hosts(self) -> int:
        return self.arity**self.levels


def build_fat_tree(spec: FatTreeSpec, *, name: Optional[str] = None) -> Topology:
    """Generic k-ary n-tree (Petrini & Vanneschi construction).

    Stage ``l`` (0 = leaf) has ``k^(n-1)`` switches.  Switch ``(l, w)``
    where ``w = (w_{n-2}, ..., w_0)`` in base ``k`` connects its up-port
    ``u`` to the stage-``l+1`` switch whose digit ``w_l`` is replaced by
    ``u``, at down-port equal to the replaced digit.  Top-stage switches
    have only down ports.  For n=2 this reduces to the folded MIN above
    with ``k`` spines of radix ``k``.
    """
    k, n = spec.arity, spec.levels
    n_switches_per_stage = k ** (n - 1)
    host_ids = tuple(f"h{i}" for i in range(spec.n_hosts))
    switch_ids: List[str] = []
    ports: Dict[str, List[Optional[PortRef]]] = {}
    for h in host_ids:
        ports[h] = [None]
    for level in range(n):
        radix = k if level == n - 1 else 2 * k
        for w in range(n_switches_per_stage):
            sid = f"sw{level}.{w}"
            switch_ids.append(sid)
            ports[sid] = [None] * radix

    # Hosts under leaves: down ports are 0..k-1 at every stage.
    for w in range(n_switches_per_stage):
        for d in range(k):
            _wire(ports, f"sw0.{w}", d, host_ids[w * k + d], 0)

    # Inter-stage wiring by digit replacement.
    for level in range(n - 1):
        stride = k**level
        for w in range(n_switches_per_stage):
            digit = (w // stride) % k
            for u in range(k):
                upper = w + (u - digit) * stride
                # Up ports are k..2k-1; the upper switch's down port index
                # is the digit that was replaced.
                _wire(ports, f"sw{level}.{w}", k + u, f"sw{level + 1}.{upper}", digit)

    topo = Topology(
        name=name or f"fat-tree-{k}ary{n}",
        host_ids=host_ids,
        switch_ids=tuple(switch_ids),
        ports=ports,
        levels={f"sw{l}.{w}": l for l in range(n) for w in range(n_switches_per_stage)},
    )
    topo.validate()
    return topo


def paper_topology() -> Topology:
    """The exact network of Section 4.1: 128 endpoints, radix-16 switches.

    16 leaves x 8 hosts, 8 spines; every switch has 16 ports.
    """
    return build_folded_shuffle_min(16, 8, 8, name="paper-min-128")
