"""Centralized admission control and fixed-path assignment (Section 3).

The paper reserves bandwidth "at a centralized point and no record is
kept in the switches", which also makes fixed routing mandatory.  This
module is that centralized point:

- Regulated flows call :meth:`AdmissionController.reserve`; the
  controller picks, among the candidate minimal paths the routing layer
  offers, the one whose most-loaded link stays least loaded after adding
  the request (greedy water-filling), and rejects the flow if no path can
  carry it within the configured utilization ceiling.
- Best-effort flows call :meth:`AdmissionController.assign_path`; no
  bandwidth is reserved, but paths are still fixed (to preserve in-order
  delivery) and spread across candidates by a running byte-weight
  counter -- the "load balancing when assigning paths" the paper notes as
  an advantage over deterministic routing.

Paths are any objects exposing ``ports`` (source-route port indices) and
``links`` (hashable directed-link ids for accounting).  The routing layer
offers a host pair's candidates unbuilt (:class:`CandidateSet`): the
links each one traverses beyond those common to all, and a way to build
candidate ``k``.  Only those are scored -- a link common to every
candidate cannot change which sorted profile is smallest -- so an open
builds one path, the winner's, however many it chose from.

The per-link ledgers are kept in **integer bytes/second**
(:func:`repro.sim.units.bps`): requests arrive as float bytes/ns, are
converted once at the ledger boundary, and the same converted integer is
subtracted on release -- so a fully released link reads exactly zero,
with no float drift and no epsilon guard.  Those integers are also what
an open is decided on (:meth:`AdmissionController._least_loaded` says why
no division is needed), read from one mutable cell per link that the
controller finds once per pair of attach switches, not once per open.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Protocol,
    Sequence,
    Tuple,
)

from repro.sim.units import bps

__all__ = ["AdmissionController", "AdmissionError", "Reservation"]


class PathLike(Protocol):
    ports: Tuple[int, ...]
    links: Tuple[Hashable, ...]


class CandidateSet(Protocol):
    """The usable paths between two hosts, unbuilt: ``path(k).links`` is
    ``varying[k]`` plus links that every candidate traverses.  Sets with
    equal ``key`` have equal ``varying``, link for link (the routing layer
    shares one between every host pair under the same two switches), so
    the controller looks those links up in its ledger once per key."""

    key: Hashable
    varying: Sequence[Sequence[Hashable]]

    def path(self, k: int) -> PathLike: ...


class AdmissionError(RuntimeError):
    """Raised when no candidate path can accommodate a reservation."""


@dataclass(frozen=True)
class Reservation:
    """A granted bandwidth reservation along a fixed path."""

    flow_id: int
    path: PathLike
    bw_bytes_per_ns: float


class _LedgerColumn(Mapping):
    """One column of the ledger's per-link cells, as the ``link ->
    integer bytes/second`` mapping it is read (and, by tests, written) as.
    Every link the controller has looked at is in it, at zero if nothing
    holds bandwidth there."""

    def __init__(self, cells: Dict[Hashable, List[int]], column: int):
        self._cells = cells
        self._column = column

    def __getitem__(self, link: Hashable) -> int:
        cell = self._cells.get(link)  # not [link]: reading makes no cell
        if cell is None:
            raise KeyError(link)
        return cell[self._column]

    def __setitem__(self, link: Hashable, value: int) -> None:
        self._cells[link][self._column] = value

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


_RESERVED, _ASSIGNED = 0, 1


class AdmissionController:
    """Tracks per-link reserved bandwidth and balances path assignment.

    ``candidates(src, dst)`` must return the usable (deadlock-free,
    minimal) paths between two hosts.  ``link_capacity`` is the data rate
    of every link in bytes/ns.
    """

    def __init__(
        self,
        candidates: Callable[[int, int], CandidateSet],
        link_capacity: float,
        *,
        max_utilization: float = 1.0,
    ):
        if link_capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {link_capacity}")
        if not 0 < max_utilization <= 1.0:
            raise ValueError(f"max_utilization must be in (0, 1], got {max_utilization}")
        self._candidates = candidates
        self._capacity_bps = bps(link_capacity)
        self.max_utilization = max_utilization
        #: the ledger: per directed link id one mutable ``[reserved,
        #: assigned]`` cell of integer bytes/second
        self._cells: Dict[Hashable, List[int]] = defaultdict(lambda: [0, 0])
        #: reserved bandwidth per directed link id
        self.reserved = _LedgerColumn(self._cells, _RESERVED)
        #: best-effort balancing weight (assigned deadline-bw) per link id
        self.assigned_weight = _LedgerColumn(self._cells, _ASSIGNED)
        #: per candidate-set key: the cells of each candidate's varying
        #: links, so that scoring reads list slots, not link-keyed dicts
        self._varying_cells: Dict[Hashable, Tuple[Tuple[List[int], ...], ...]] = {}
        self._reservations: Dict[int, Reservation] = {}

    # ------------------------------------------------------------------
    def utilization(self, link: Hashable) -> float:
        return self.reserved.get(link, 0) / self._capacity_bps

    def _least_loaded(self, src: int, dst: int, column: int) -> Tuple[PathLike, int]:
        """The candidate with the smallest post-assignment utilization
        *profile* (its links' utilizations, sorted descending), and how
        many it was chosen from.  Among equal profiles the first in the
        routing layer's (stable) order wins.

        Comparing profiles lexicographically (not just the maximum)
        matters: every candidate path between two hosts shares the same
        first and last links, so once the host's injection link is the
        busiest element the maxima all tie and a max-only rule would
        collapse onto the first candidate forever -- one spine hot, the
        rest idle.  Lexicographic water-filling keeps spreading load by
        the busiest *distinct* link.

        Which is also why only each candidate's ``varying`` links are
        sorted: merging the same shared values into every profile moves
        none of them past another, ties included.

        And why the ledger's integers are compared as they stand.  A
        link's utilization after the request is ``(load + extra) /
        capacity`` with the same ``extra`` and the same positive
        ``capacity`` on every link, and that map keeps order *and ties*
        exactly as the loads have them so long as distinct numerators
        divide to distinct floats -- which they do while ``load + extra <
        2**52`` bytes/second (then ``1 / capacity`` exceeds the spacing of
        the floats around the quotient; at 2**53 it no longer does), four
        million of the paper's links.  So the request does not enter the
        choice at all, only the ceiling test after it.
        """
        candidates = self._candidates(src, dst)
        walks = self._varying_cells.get(candidates.key)
        if walks is None:
            ledger = self._cells
            walks = self._varying_cells[candidates.key] = tuple(
                [tuple([ledger[link] for link in links]) for links in candidates.varying]
            )
        if not walks:
            raise AdmissionError(f"no route from host {src} to host {dst}")
        best, winner = None, 0
        for k, cells in enumerate(walks):
            if len(cells) == 2:  # a leaf-spine-leaf walk: sorted by hand
                a, b = cells[0][column], cells[1][column]
                profile = (a, b) if a >= b else (b, a)
            else:
                profile = tuple(sorted([cell[column] for cell in cells], reverse=True))
            if best is None or profile < best:
                best, winner = profile, k
        return candidates.path(winner), len(walks)

    # ------------------------------------------------------------------
    def reserve(self, flow_id: int, src: int, dst: int, bw_bytes_per_ns: float) -> Reservation:
        """Admit a regulated flow or raise :class:`AdmissionError`."""
        if bw_bytes_per_ns <= 0:
            raise ValueError(f"reserved bandwidth must be positive, got {bw_bytes_per_ns}")
        if flow_id in self._reservations:
            raise AdmissionError(f"flow {flow_id} already holds a reservation")
        bw_bps = bps(bw_bytes_per_ns)
        best_path, n_paths = self._least_loaded(src, dst, _RESERVED)
        ledger = self._cells
        cells = [ledger[link] for link in best_path.links]
        # The busiest link the flow would cross, shared links included
        # (division by one capacity is monotone, so it is the peak).
        peak_bps = max([cell[_RESERVED] + bw_bps for cell in cells], default=0)
        if peak_bps / self._capacity_bps > self.max_utilization:
            raise AdmissionError(
                f"flow {flow_id} ({src}->{dst}, {bw_bytes_per_ns:.4f} B/ns) rejected: "
                f"all {n_paths} candidate paths above "
                f"{self.max_utilization:.0%} utilization"
            )
        for cell in cells:
            cell[_RESERVED] += bw_bps
        reservation = Reservation(flow_id, best_path, bw_bytes_per_ns)
        self._reservations[flow_id] = reservation
        return reservation

    def release(self, flow_id: int) -> None:
        """Return a flow's reserved bandwidth to the pool."""
        reservation = self._reservations.pop(flow_id, None)
        if reservation is None:
            raise AdmissionError(f"flow {flow_id} holds no reservation")
        # bps() is deterministic, so subtracting the same conversion that
        # was added on admit returns the ledger to exactly zero.
        bw_bps = bps(reservation.bw_bytes_per_ns)
        ledger = self._cells
        for link in reservation.path.links:
            ledger[link][_RESERVED] -= bw_bps

    def assign_path(self, src: int, dst: int, weight: float = 1.0) -> PathLike:
        """Fixed-path assignment for unregulated traffic (no reservation)."""
        weight_bps = bps(weight)
        best_path, _ = self._least_loaded(src, dst, _ASSIGNED)
        ledger = self._cells
        for link in best_path.links:
            ledger[link][_ASSIGNED] += weight_bps
        return best_path

    # ------------------------------------------------------------------
    @property
    def reservation_count(self) -> int:
        return len(self._reservations)
