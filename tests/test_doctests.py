"""Run the doctest examples embedded in module docstrings.

Several modules carry small usage examples in their docstrings
(``units``, ``eligible``, ``invariants``, ``telemetry``, ``report``,
``rng``, ``monitor``); keeping them executable keeps the documentation
honest.  ``eligible`` is a note on the Section 3.1 rule with one worked
example: the eligible time of one deadline at the default offset.
"""

import doctest

import pytest

import repro.core.eligible
import repro.core.invariants
import repro.obs.telemetry
import repro.sim.rng
import repro.sim.units
import repro.stats.report
import repro.sim.monitor

MODULES = [
    repro.sim.units,
    repro.core.eligible,
    repro.core.invariants,
    repro.obs.telemetry,
    repro.stats.report,
    repro.sim.rng,
    repro.sim.monitor,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
