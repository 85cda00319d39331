"""Differential proof: backlog-gated wake-ups == waking the sender on
every tx-done and every credit.

A link re-polls its sender only while ``Link.backlog`` counts a packet
the sender holds for it.  The eager wake-ups this replaced survive as the
test oracle (``tests/network/eager_wakeups.py``).  For every
architecture, on the three figure-style configs the engine differential
uses, a run on a fabric whose links wake their senders eagerly must
produce **byte-identical** ``RunSummary`` JSON -- ``events_executed``
included, since a wake-up is a call and never an event -- and span-trace
JSONL: a poll of a sender with nothing queued changed no grant.
"""

import dataclasses

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.experiments import runner as runner_module
from repro.network.fabric import Fabric
from tests.network.eager_wakeups import EagerLink, install_eager_wakeups
from tests.sim.test_engine_differential import _figure_configs, _run_artifacts


@pytest.mark.parametrize("figure", sorted(_figure_configs()))
@pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
def test_byte_identical_to_eager_wakeups(monkeypatch, arch_name, figure):
    config = dataclasses.replace(_figure_configs()[figure], architecture=arch_name)
    summary, spans = _run_artifacts(config, None)

    built = []

    def build_eager_fabric(*args, **kwargs):
        built.append(install_eager_wakeups(Fabric(*args, **kwargs)))
        return built[-1]

    monkeypatch.setattr(runner_module, "Fabric", build_eager_fabric)
    eager_summary, eager_spans = _run_artifacts(config, None)

    assert built, "the eager fabric was never built"
    assert all(type(link) is EagerLink for link in built[-1].links.values())
    assert summary == eager_summary, "RunSummary diverged"
    assert spans == eager_spans, "span traces diverged"
    assert b'"events_executed"' in summary and spans.count(b"\n") > 1
