"""Shared constants with no dependencies (breaks import cycles).

The paper's architecture uses exactly two virtual channels (its headline
cost claim): VC0 carries admitted, bandwidth-regulated traffic with
absolute priority; VC1 carries unregulated best-effort traffic.

Lower VC index = higher priority, everywhere.  ``N_VCS`` is the paper's
default; fabrics may be built with more VCs
(``FabricParams(n_vcs=...)``) to reproduce the Section 6 counterfactual
-- a conventional switch that dedicates one priority VC per traffic
class, the "many more VCs" alternative the paper argues is unaffordable.
"""

#: Virtual channel carrying admitted, bandwidth-reserved traffic.
VC_REGULATED = 0
#: Virtual channel carrying unregulated (best-effort) traffic (in the
#: paper's two-VC layout; multi-VC fabrics may map classes differently).
VC_BEST_EFFORT = 1
#: Default number of virtual channels per port (the paper's proposal).
N_VCS = 2


def default_vc(tclass: str) -> int:
    """The paper's two-VC layout: the best-effort classes on VC1, every
    other class on VC0."""
    return VC_BEST_EFFORT if tclass in ("best-effort", "background") else VC_REGULATED


__all__ = ["N_VCS", "VC_BEST_EFFORT", "VC_REGULATED", "default_vc"]
