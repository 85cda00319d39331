"""Differential proof: VOQs created on first arrival == the dense table.

A switch fills a slot of its VOQ table when the first packet needs it;
until then the slot holds a shared always-empty placeholder.  The layout
this replaced built every queue up front and survives as the test oracle
(``tests/network/dense_voqs.py``).  For every architecture, on the three
figure-style configs the engine differential uses, a run on a fabric
whose every VOQ exists before the first packet must produce
**byte-identical** ``RunSummary`` JSON and span-trace JSONL -- when a
queue came to exist changed no grant.
"""

import dataclasses

import pytest

from repro.experiments import runner as runner_module
from repro.network.fabric import Fabric
from tests.network.dense_voqs import materialise_every_voq
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for
from tests.sim.test_engine_differential import _figure_configs, _run_artifacts


@pytest.mark.parametrize("figure", sorted(_figure_configs()))
@pytest.mark.parametrize("arch_name", ARCHITECTURE_NAMES)
def test_byte_identical_to_dense_table(monkeypatch, arch_name, figure):
    engine_factory = engine_factory_for(monkeypatch, arch_name)
    config = dataclasses.replace(_figure_configs()[figure], architecture=arch_name)
    summary, spans = _run_artifacts(config, engine_factory)

    built = []

    def build_dense_fabric(*args, **kwargs):
        built.append(materialise_every_voq(Fabric(*args, **kwargs)))
        return built[-1]

    monkeypatch.setattr(runner_module, "Fabric", build_dense_fabric)
    dense_summary, dense_spans = _run_artifacts(config, engine_factory)

    assert built, "the dense fabric was never built"
    assert summary == dense_summary, "RunSummary diverged"
    assert spans == dense_spans, "span traces diverged"
    assert b'"events_executed"' in summary and spans.count(b"\n") > 1
