"""Fixed source routing over the MIN (up*/down* paths).

The paper mandates fixed routing: packets follow the exact path their
flow reserved, so admission control's bandwidth accounting holds and
packets of a flow can never overtake each other on different paths.

In a folded MIN / fat-tree, all minimal host-to-host paths go *up* to a
common-ancestor stage and then *down* -- the classic deadlock-free
up*/down* discipline.  :class:`RoutingTable` enumerates those minimal
paths (one per choice of ancestor switch) once per pair of attach
switches and caches only that: a host pair's :class:`Candidates` are its
two endpoint links around the shared walks, and a :class:`RoutePath` is
built for the candidate somebody asks for (admission: the winner).  A
path is:

- ``ports``: the output-port index to take at each *switch* (the source
  route carried in the packet header), and
- ``links``: the directed link ids (``(node, port)`` of the sending
  side) used by the admission controller's bandwidth ledger -- including
  the host's injection link and the final link down to the destination
  host.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.network.topology import Topology, TopologyError

__all__ = ["RoutePath", "RoutingTable", "compute_updown_paths"]

LinkId = Tuple[str, int]  # (sending node, sending port)
#: One switch-level up*/down* walk between two attach switches: the
#: switches visited, the output port at each but the last (whose exit
#: depends on the destination host), and those hops as directed links.
Segment = Tuple[Tuple[str, ...], Tuple[int, ...], Tuple[LinkId, ...]]
#: Every such walk between two attach switches, in admission's tie-break
#: order, and beside them their links alone (what admission scores).
Walks = Tuple[Tuple[Segment, ...], Tuple[Tuple[LinkId, ...], ...]]


class RoutePath:
    """One fixed path between two hosts; two are equal when they join
    the same hosts over the same ``links``.

    The ledger walks ``links`` on reserve and release, so those are
    stored; ``nodes`` and ``ports`` are read once per flow, so they are
    joined on demand from the segment the path shares with every host
    pair under the same two attach switches.
    """

    __slots__ = ("src", "dst", "links", "_hosts", "_segment")

    def __init__(
        self,
        src: int,
        dst: int,
        links: Tuple[LinkId, ...],
        hosts: Tuple[str, str],
        segment: Segment,
    ):
        self.src = src
        self.dst = dst
        #: directed links traversed, as (sender node, sender port).
        self.links = links
        self._hosts = hosts
        self._segment = segment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutePath):
            return NotImplemented
        return (self.src, self.dst, self.links) == (other.src, other.dst, other.links)

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.links))

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node ids visited, host to host inclusive."""
        return (self._hosts[0], *self._segment[0], self._hosts[1])

    @property
    def ports(self) -> Tuple[int, ...]:
        """Output port at each switch along the way (the packet's source route)."""
        return (*self._segment[1], self.links[-1][1])

    @property
    def hops(self) -> int:
        """Number of switches traversed."""
        return len(self._segment[0])


class Candidates:
    """The minimal paths between two hosts, as admission scores them.

    Candidate ``k`` uses the ``shared`` links (injection and delivery,
    common to all) plus ``varying[k]`` (its switch-level walk); ``path(k)``
    builds it.  ``key`` names the two attach switches: every host pair
    with that key has this same ``varying``, which lets admission find
    those links in its ledger once.  Also a read-only sequence of those
    paths, built as they are indexed.
    """

    __slots__ = ("src", "dst", "shared", "key", "varying", "_hosts", "_segments")

    def __init__(
        self,
        src: int,
        dst: int,
        shared: Tuple[LinkId, LinkId],
        hosts: Tuple[str, str],
        key: Tuple[str, str],
        walks: Walks,
    ):
        self.src = src
        self.dst = dst
        self.shared = shared
        self._hosts = hosts
        self.key = key
        self._segments, self.varying = walks

    def path(self, k: int) -> RoutePath:
        inject, deliver = self.shared
        segment = self._segments[k]
        return RoutePath(self.src, self.dst, (inject, *segment[2], deliver), self._hosts, segment)

    __getitem__ = path

    def __len__(self) -> int:
        return len(self._segments)


class RoutingTable:
    """Candidate paths for any host pair, on demand (the paper's MIN has
    16k host pairs and ``scale512`` 261k, of which a run opens only some).

    Every host pair under the same two attach switches shares its
    switch-level walks, so those are enumerated once per switch pair
    (:meth:`_enumerate`, joining what each switch climbed once --
    :meth:`_climb`) and are all the table keeps; a host pair's candidates
    are its two endpoint links around the cached segments.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._segments: Dict[Tuple[str, str], Walks] = {}
        #: per attach switch, per stage climbed: see :meth:`_climb`.
        self._climbs: Dict[str, List[Tuple[List[Segment], Dict[str, Segment]]]] = {}
        #: per host index: its injection link and the link that delivers to
        #: it (whose sender is the host's attach switch).
        self._attach: List[Tuple[LinkId, LinkId]] = []
        for host in topo.host_ids:
            ((port, deliver),) = [
                (p, ref) for p, ref in enumerate(topo.ports[host]) if ref is not None
            ]
            self._attach.append(((host, port), deliver))
        #: per switch: the next-stage switches it is wired to, in port order.
        levels = topo.levels
        self._up: Dict[str, Tuple[str, ...]] = {
            sw: tuple(
                peer
                for peer in topo.neighbors(sw)
                if not topo.is_host(peer) and levels[peer] == levels[sw] + 1
            )
            for sw in topo.switch_ids
        }

    def _climb(self, sw: str, height: int) -> Tuple[List[Segment], Dict[str, Segment]]:
        """The walks ``height`` stages up from ``sw``, in wiring order, and
        for each switch they reach the way back down to ``sw`` (the first
        such walk's, reversed, less the switch it starts from) -- each as
        switches, out-ports and links, hop for hop.

        Climbed once per attach switch and kept, with the ports and links
        of every hop: meeting two switches is then tuple joins alone.
        """
        stages = self._climbs.get(sw)
        if stages is None:
            stages = self._climbs[sw] = [([((sw,), (), ())], {sw: ((), (), ())})]
        port_to = self.topo.port_to
        while len(stages) <= height:
            ups: List[Segment] = []
            downs: Dict[str, Segment] = {}
            for nodes, ports, links in stages[-1][0]:
                for peer in self._up[nodes[-1]]:
                    port = port_to(nodes[-1], peer)
                    ups.append((nodes + (peer,), ports + (port,), links + ((nodes[-1], port),)))
                    if peer not in downs:
                        back = (peer, *reversed(nodes))
                        out = tuple(port_to(a, b) for a, b in zip(back, back[1:]))
                        downs[peer] = (back[1:], out, tuple(zip(back, out)))
            stages.append((ups, downs))
        return stages[height]

    def _enumerate(self, src_sw: str, dst_sw: str) -> Walks:
        """All minimal up*/down* segments between two attach switches.

        Walks up from both switches a stage at a time; at the first stage
        where the two ascents can meet in a common switch, each such
        switch yields one walk.  In a (folded) MIN the up-neighbour sets
        are deterministic, so this enumerates exactly the minimal paths
        without a graph search.
        """
        height = 0
        while True:
            ups, _ = self._climb(src_sw, height)
            _, downs = self._climb(dst_sw, height)
            if not ups or not downs:
                raise TopologyError(f"no up*/down* path between {src_sw} and {dst_sw}")
            found: List[Segment] = []
            for nodes, ports, links in ups:
                down = downs.get(nodes[-1])
                if down is not None:
                    found.append((nodes + down[0], ports + down[1], links + down[2]))
            if found:
                # Stable order (by the switches visited, which no two walks
                # share): admission tie-breaks then pick the same path every run.
                found.sort()
                walks = self._segments[(src_sw, dst_sw)] = (
                    tuple(found),
                    tuple([links for _, _, links in found]),
                )
                return walks
            height += 1

    def candidates(self, src: int, dst: int) -> Candidates:
        if src == dst:
            raise ValueError(f"src and dst are the same host ({src})")
        inject, (src_sw, _) = self._attach[src]
        (dst_host, _), deliver = self._attach[dst]
        dst_sw = deliver[0]
        key = (src_sw, dst_sw)
        walks = self._segments.get(key) or self._enumerate(src_sw, dst_sw)
        return Candidates(src, dst, (inject, deliver), (inject[0], dst_host), key, walks)

    #: Alias so the table itself is a valid admission ``candidates``.
    __call__ = candidates


def compute_updown_paths(topo: Topology, src: int, dst: int) -> Tuple[RoutePath, ...]:
    """All minimal fixed paths from host index ``src`` to host index ``dst``
    (builds a table per call; hold a :class:`RoutingTable` to ask twice)."""
    return tuple(RoutingTable(topo).candidates(src, dst))
