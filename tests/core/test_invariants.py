"""Tests for repro.core.invariants -- including survival under ``python -O``.

The whole point of ``invariant()`` is that, unlike a bare ``assert``,
the Lemma 1 / Definition 1 checks in the take-over queue keep firing
when python strips assert statements.  The subprocess tests here run
real optimized interpreters to prove it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.invariants import InvariantViolation, invariant

REPO_ROOT = Path(__file__).resolve().parents[2]


def _env_with_src() -> dict:
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestInvariantHelper:
    def test_truthy_condition_is_a_no_op(self):
        invariant(True, "never raised")
        invariant([1], "truthy container ok")
        invariant(1, "truthy int ok")

    def test_falsy_condition_raises_typed_violation(self):
        with pytest.raises(InvariantViolation, match="queue broke"):
            invariant(False, "queue broke")
        with pytest.raises(InvariantViolation):
            invariant([], "empty container is falsy")

    def test_violation_is_an_assertion_error(self):
        # Callers (and old tests) that catch AssertionError keep working.
        assert issubclass(InvariantViolation, AssertionError)
        with pytest.raises(AssertionError):
            invariant(False, "still an assertion")

    def test_lazy_percent_formatting(self):
        with pytest.raises(InvariantViolation, match=r"flow 7 at t=42"):
            invariant(False, "flow %d at t=%d", 7, 42)

    def test_message_with_literal_percent_and_no_args(self):
        # No args -> no formatting pass, so a literal % is safe.
        with pytest.raises(InvariantViolation, match="100%"):
            invariant(False, "load hit 100%")


class TestLemma1UnderOptimization:
    """The acceptance criterion: invariants hold with ``python -O``."""

    def test_takeover_invariant_enforced_under_dash_O(self):
        """Corrupt a TakeOverQueue into a Lemma 1-violating state inside
        an optimized interpreter; the typed invariant must still fire.
        (A bare assert would be compiled away and return None happily.)

        The probe script avoids `assert` entirely -- under -O it would
        vanish -- and communicates through exit codes.
        """
        probe = (
            "import sys\n"
            "from repro.core.invariants import InvariantViolation\n"
            "from repro.core.queues.takeover import TakeOverQueue\n"
            "from tests.helpers import mkpkt\n"
            "if sys.flags.optimize != 1:\n"
            "    sys.exit(3)  # not actually running optimized\n"
            "q = TakeOverQueue()\n"
            "q._upper.append(mkpkt(5))  # force 'packets only in U'\n"
            "try:\n"
            "    q.push(mkpkt(7))  # push checks Lemma 1\n"
            "except InvariantViolation:\n"
            "    sys.exit(0)\n"
            "sys.exit(4)  # invariant did not fire\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            cwd=REPO_ROOT,
            env=_env_with_src(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, (
            f"probe exited {result.returncode}\n"
            f"stdout: {result.stdout}\nstderr: {result.stderr}"
        )

    def test_takeover_property_suite_passes_under_dash_O(self):
        """The full Theorems 1-3 / Lemma 1 property suite must pass with
        optimization on: pytest's assertion rewriting keeps the *test*
        asserts alive, and invariant() keeps the *library* checks alive."""
        result = subprocess.run(
            [
                sys.executable,
                "-O",
                "-m",
                "pytest",
                "-q",
                "-p",
                "no:cacheprovider",
                "tests/core/test_takeover_properties.py",
            ],
            cwd=REPO_ROOT,
            env=_env_with_src(),
            capture_output=True,
            text=True,
            timeout=560,
        )
        assert result.returncode == 0, (
            f"property suite failed under -O\n"
            f"stdout: {result.stdout}\nstderr: {result.stderr}"
        )
