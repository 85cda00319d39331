"""Topology scale presets.

All presets keep the paper's shape -- a two-stage folded MIN with full
bisection bandwidth (uplinks per leaf == hosts per leaf), so no preset
introduces structural oversubscription the paper's network does not
have.  ``paper`` is the exact Section 4.1 configuration; the smaller
scales exist because a pure-Python simulator pays ~100x the authors'
C-simulator cost per event, and the *relative* architecture comparison
is scale-invariant (the workload tests verify the claims hold across
presets).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.network.topology import Topology, build_folded_shuffle_min

__all__ = ["TOPOLOGY_PRESETS", "make_topology"]

#: name -> (n_leaves, hosts_per_leaf, n_spines)
TOPOLOGY_PRESETS: Dict[str, Tuple[int, int, int]] = {
    # 16 hosts, radix-8 leaves: the smallest full-bisection instance.
    "tiny": (4, 4, 4),
    # 32 hosts: default for tests and quick benches.
    "small": (8, 4, 4),
    # 64 hosts, radix-16 switches like the paper.
    "medium": (8, 8, 8),
    # The paper's network: 128 endpoints, 16 leaves x 8 hosts, 8 spines.
    "paper": (16, 8, 8),
    # 4x the paper: 512 endpoints, 32 leaves x 16 hosts, 16 spines (full
    # bisection is preserved: 16 == 16).  The scale the SIM5xx lint pass
    # is about and the benchmark's ``scale512_cold`` workload runs.
    "scale512": (32, 16, 16),
}


def make_topology(preset: str) -> Topology:
    try:
        n_leaves, hosts_per_leaf, n_spines = TOPOLOGY_PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_PRESETS))
        raise KeyError(f"unknown topology preset {preset!r}; known: {known}") from None
    return build_folded_shuffle_min(
        n_leaves, hosts_per_leaf, n_spines, name=f"{preset}-min"
    )
