"""Differential proof: backlogged-list arbitration == scanning arbitration.

The switch hands its pickers the inputs it knows to be backlogged; the
pickers this replaced polled every input VOQ's head on every wake-up.
The polling pickers survive as the test oracle
(``tests/core/scanning_pickers.py``).  For every architecture, on the
three figure-style configs the engine differential uses, a run under
the production pickers and a run under the oracle must produce
**byte-identical** ``RunSummary`` JSON and span-trace JSONL -- every
grant, at every switch, went to the same input.
"""

import dataclasses

import pytest

from repro.core.architectures import ARCHITECTURES
from tests.core.scanning_pickers import with_scanning_pickers
from tests.core.pipelined_heap import ARCHITECTURE_NAMES, engine_factory_for
from tests.sim.test_engine_differential import _figure_configs, _run_artifacts


@pytest.mark.parametrize("figure", sorted(_figure_configs()))
@pytest.mark.parametrize("arch_name", ARCHITECTURE_NAMES)
def test_byte_identical_to_scanning_oracle(monkeypatch, arch_name, figure):
    engine_factory = engine_factory_for(monkeypatch, arch_name)
    config = dataclasses.replace(_figure_configs()[figure], architecture=arch_name)
    summary, spans = _run_artifacts(config, engine_factory)

    # The runner resolves architectures by name; same name, oracle pickers.
    oracle = with_scanning_pickers(ARCHITECTURES[arch_name])
    minted = []

    def mint_oracle_picker():
        minted.append(oracle.picker_factory())
        return minted[-1]

    monkeypatch.setitem(
        ARCHITECTURES, arch_name, dataclasses.replace(oracle, picker_factory=mint_oracle_picker)
    )
    oracle_summary, oracle_spans = _run_artifacts(config, engine_factory)

    assert minted, "the oracle pickers were never installed"
    assert summary == oracle_summary, "RunSummary diverged"
    assert spans == oracle_spans, "span traces diverged"
    assert b'"events_executed"' in summary and spans.count(b"\n") > 1
