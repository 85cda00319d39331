"""Shared fixtures: small fabrics, engines, and RNG streams."""

from __future__ import annotations

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.network.fabric import Fabric, FabricParams
from repro.network.topology import build_folded_shuffle_min
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def tiny_topology():
    """16 hosts, full bisection: 4 leaves x 4 hosts, 4 spines."""
    return build_folded_shuffle_min(4, 4, 4)


@pytest.fixture
def make_fabric(tiny_topology):
    """Factory for a small fabric of a given architecture name."""

    def _make(arch: str = "advanced-2vc", **param_overrides) -> Fabric:
        params = FabricParams(**param_overrides) if param_overrides else FabricParams()
        return Fabric(tiny_topology, ARCHITECTURES[arch], params)

    return _make
