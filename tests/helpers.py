"""Small helpers shared across test modules."""

from __future__ import annotations

from repro.network.packet import Packet


class WholePaths:
    """What :class:`~repro.core.admission.AdmissionController` scores, for
    candidates that come as finished paths (the admission fakes,
    ``OracleRoutingTable``): nothing is shared, so every candidate's
    ``varying`` links are all of its links and the selection rule is the
    whole-profile one."""

    shared = ()

    def __init__(self, paths):
        self.paths = paths
        self.key = self.varying = tuple(path.links for path in paths)

    def path(self, k):
        return self.paths[k]


def whole_paths(candidates):
    """Adapt ``candidates(src, dst) -> sequence of paths`` for admission."""
    return lambda src, dst: WholePaths(candidates(src, dst))


def mkpkt(
    deadline: int,
    *,
    size: int = 256,
    flow_id: int = 1,
    seq: int = 0,
    src: int = 0,
    dst: int = 1,
    vc: int = 0,
    tclass: str = "test",
    **kwargs,
) -> Packet:
    """A packet with the given deadline; uid auto-increments globally, so
    creation order == arrival order for tie-breaking purposes."""
    return Packet(
        flow_id=flow_id,
        seq=seq,
        src=src,
        dst=dst,
        size=size,
        vc=vc,
        tclass=tclass,
        deadline=deadline,
        **kwargs,
    )
