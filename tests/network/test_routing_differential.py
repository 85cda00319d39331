"""Differential proof: segment-sharing routing == per-host-pair routing.

``RoutingTable`` builds a host pair's candidates from switch-level
segments shared by every pair under the same two attach switches; the
enumeration it replaced re-derived each pair from the raw wiring and
survives as the test oracle (``tests/network/updown_oracle.py``).  For
every architecture, on the three figure-style configs the engine
differential uses, a run with the oracle table installed in the fabric
must produce **byte-identical** ``RunSummary`` JSON and span-trace JSONL
-- every flow was offered the same candidates in the same order, so
admission fixed the same route.  The oracle hands admission whole paths
(``tests.helpers.whole_paths``: every link scored), so this is also the
whole-run proof that scoring only the switch-level links picks the same
winner.
"""

import dataclasses

import pytest

from repro.network import fabric as fabric_module
from tests.helpers import whole_paths
from tests.network.updown_oracle import OracleRoutingTable
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for
from tests.sim.test_engine_differential import _figure_configs, _run_artifacts


@pytest.mark.parametrize("figure", sorted(_figure_configs()))
@pytest.mark.parametrize("arch_name", ARCHITECTURE_NAMES)
def test_byte_identical_to_per_pair_oracle(monkeypatch, arch_name, figure):
    engine_factory = engine_factory_for(monkeypatch, arch_name)
    config = dataclasses.replace(_figure_configs()[figure], architecture=arch_name)
    summary, spans = _run_artifacts(config, engine_factory)

    built = []

    def build_oracle_table(topology):
        built.append(OracleRoutingTable(topology))
        return whole_paths(built[-1])

    monkeypatch.setattr(fabric_module, "RoutingTable", build_oracle_table)
    oracle_summary, oracle_spans = _run_artifacts(config, engine_factory)

    assert built and built[0]._cache, "the oracle table was never consulted"
    assert summary == oracle_summary, "RunSummary diverged"
    assert spans == oracle_spans, "span traces diverged"
    assert b'"events_executed"' in summary and spans.count(b"\n") > 1
