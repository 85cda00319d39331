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
with no float drift and no epsilon guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Protocol, Sequence, Tuple

from repro.sim.units import bps

__all__ = ["AdmissionController", "AdmissionError", "Reservation"]


class PathLike(Protocol):
    ports: Tuple[int, ...]
    links: Tuple[Hashable, ...]


class CandidateSet(Protocol):
    """The usable paths between two hosts, unbuilt: ``path(k).links`` is
    ``varying[k]`` plus links that every candidate traverses."""

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
        #: reserved bandwidth per directed link id, integer bytes/second
        self.reserved: Dict[Hashable, int] = {}
        #: best-effort balancing weight (integer bytes/second of assigned
        #: deadline-bw)
        self.assigned_weight: Dict[Hashable, int] = {}
        self._reservations: Dict[int, Reservation] = {}

    # ------------------------------------------------------------------
    def utilization(self, link: Hashable) -> float:
        return self.reserved.get(link, 0) / self._capacity_bps

    def _least_loaded(
        self, src: int, dst: int, extra_bps: int, table: Dict[Hashable, int]
    ) -> Tuple[PathLike, int]:
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
        """
        candidates = self._candidates(src, dst)
        varying = candidates.varying
        if not varying:
            raise AdmissionError(f"no route from host {src} to host {dst}")
        load, capacity = table.get, self._capacity_bps
        profiles = [
            sorted([(load(link, 0) + extra_bps) / capacity for link in links], reverse=True)
            for links in varying
        ]
        return candidates.path(profiles.index(min(profiles))), len(varying)

    # ------------------------------------------------------------------
    def reserve(self, flow_id: int, src: int, dst: int, bw_bytes_per_ns: float) -> Reservation:
        """Admit a regulated flow or raise :class:`AdmissionError`."""
        if bw_bytes_per_ns <= 0:
            raise ValueError(f"reserved bandwidth must be positive, got {bw_bytes_per_ns}")
        if flow_id in self._reservations:
            raise AdmissionError(f"flow {flow_id} already holds a reservation")
        bw_bps = bps(bw_bytes_per_ns)
        best_path, n_paths = self._least_loaded(src, dst, bw_bps, self.reserved)
        # The head of the winner's whole profile, shared links included:
        # the busiest link the flow would cross.
        load, capacity = self.reserved.get, self._capacity_bps
        peak = max([(load(link, 0) + bw_bps) / capacity for link in best_path.links], default=0.0)
        if peak > self.max_utilization:
            raise AdmissionError(
                f"flow {flow_id} ({src}->{dst}, {bw_bytes_per_ns:.4f} B/ns) rejected: "
                f"all {n_paths} candidate paths above "
                f"{self.max_utilization:.0%} utilization"
            )
        for link in best_path.links:
            self.reserved[link] = self.reserved.get(link, 0) + bw_bps
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
        for link in reservation.path.links:
            self.reserved[link] = self.reserved.get(link, 0) - bw_bps

    def assign_path(self, src: int, dst: int, weight: float = 1.0) -> PathLike:
        """Fixed-path assignment for unregulated traffic (no reservation)."""
        weight_bps = bps(weight)
        best_path, _ = self._least_loaded(src, dst, weight_bps, self.assigned_weight)
        for link in best_path.links:
            self.assigned_weight[link] = self.assigned_weight.get(link, 0) + weight_bps
        return best_path

    # ------------------------------------------------------------------
    @property
    def reservation_count(self) -> int:
        return len(self._reservations)
