"""Per-rule fixture tests plus focused unit tests for each SIM rule.

Every rule gets (a) a known-bad fixture file that must trigger it, (b) a
known-good fixture that must stay silent, and (c) unit tests via
``lint_source`` pinning down edge cases -- including pragma suppression
and the SIM000 meta-diagnostics.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import RULES, lint_file, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

BAD_FIXTURES = {
    "SIM001": "bad/sim001_global_random.py",
    "SIM002": "bad/sim002_wallclock.py",
    "SIM003": "bad/sim003_float_deadline_eq.py",
    "SIM004": "bad/sim004_bare_assert.py",
    "SIM005": "bad/sim005_mutable_default.py",
    "SIM006": "bad/core/queues/sim006_missing_slots.py",
}

GOOD_FIXTURES = [
    "good/clean_module.py",
    "good/pragma_suppressed.py",
    "good/core/queues/slotted.py",
]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert set(RULES) >= {f"SIM00{i}" for i in range(1, 7)}

    def test_ids_match_keys_and_names_unique(self):
        names = [rule.name for rule in RULES.values()]
        assert len(names) == len(set(names))
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.description

    def test_register_rejects_duplicates(self):
        from repro.lint.rules import Rule, register_rule

        with pytest.raises(ValueError, match="duplicate rule id"):

            @register_rule
            class Clone(Rule):  # noqa: F811 - intentionally conflicting
                id = "SIM001"
                name = "clone-of-sim001"

    @pytest.mark.parametrize(
        "rule_id,name,error",
        [
            ("SIM001", "clone-of-global-random", "duplicate rule id"),
            ("SIM998", "global-random", "duplicate rule name"),
        ],
        ids=["id", "name"],
    )
    def test_project_registry_rejects_per_file_clashes(self, rule_id, name, error):
        from repro.lint.project_rules import (
            PROJECT_RULES,
            ProjectRule,
            register_project_rule,
        )

        clone = type("Clone", (ProjectRule,), {"id": rule_id, "name": name})
        try:
            with pytest.raises(ValueError, match=error):
                register_project_rule(clone)
        finally:
            registered = PROJECT_RULES.pop(rule_id, None)
        assert registered is None

    def test_per_file_registry_rejects_project_clashes(self):
        from repro.lint.rules import Rule, register_rule

        clone = type("Clone", (Rule,), {"id": "SIM101", "name": "clone-of-sim101"})
        try:
            with pytest.raises(ValueError, match="duplicate rule id"):
                register_rule(clone)
        finally:
            registered = RULES.pop("SIM101", None)
        assert registered is None


class TestFixtures:
    @pytest.mark.parametrize("rule_id", sorted(BAD_FIXTURES))
    def test_bad_fixture_triggers_exactly_its_rule(self, rule_id):
        violations = lint_file(FIXTURES / BAD_FIXTURES[rule_id])
        assert violations, f"{BAD_FIXTURES[rule_id]} triggered nothing"
        assert {v.rule_id for v in violations} == {rule_id}
        for v in violations:
            assert v.line > 0
            assert v.rule_name == RULES[rule_id].name

    @pytest.mark.parametrize("fixture", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, fixture):
        assert lint_file(FIXTURES / fixture) == []

    def test_bad_directory_collects_all_rules(self):
        violations = lint_paths([FIXTURES / "bad"])
        assert {v.rule_id for v in violations} == set(BAD_FIXTURES)
        # Output is sorted by (path, line, col) for stable CI diffs.
        assert violations == sorted(violations)


class TestSim001GlobalRandom:
    def test_both_import_forms_flagged(self):
        found = lint_source("import random\nfrom random import randint\n")
        assert [v.line for v in found] == [1, 2]
        assert all(v.rule_id == "SIM001" for v in found)

    def test_rng_wrapper_import_is_fine(self):
        assert lint_source("from repro.sim.rng import RandomStream\n") == []

    def test_unrelated_module_named_randomish_is_fine(self):
        assert lint_source("import randomforest\n") == []


class TestSim002WallClock:
    def test_direct_calls_flagged(self):
        source = "import time\nt = time.time()\np = time.perf_counter()\n"
        found = lint_source(source)
        assert [v.line for v in found] == [2, 3]
        assert all(v.rule_id == "SIM002" for v in found)

    def test_datetime_now_flagged(self):
        found = lint_source("import datetime\nd = datetime.datetime.now()\n")
        assert [v.rule_id for v in found] == ["SIM002"]

    def test_from_import_of_clock_functions_flagged(self):
        found = lint_source("from time import perf_counter, sleep\n")
        assert [v.rule_id for v in found] == ["SIM002"]
        assert "perf_counter" in found[0].message

    def test_sleep_alone_is_fine(self):
        assert lint_source("from time import sleep\n") == []

    def test_engine_now_is_fine(self):
        assert lint_source("t = engine.now\n") == []


class TestSim003FloatDeadlineEq:
    def test_float_literal_vs_deadline(self):
        found = lint_source("due = deadline == 1.5\n")
        assert [v.rule_id for v in found] == ["SIM003"]

    def test_division_vs_time_name(self):
        found = lint_source("hit = arrival_ns != size / bw\n")
        assert [v.rule_id for v in found] == ["SIM003"]

    def test_integer_comparison_is_fine(self):
        assert lint_source("due = deadline == other.deadline\n") == []
        assert lint_source("due = deadline == 5\n") == []

    def test_float_eq_without_time_name_is_not_this_rules_business(self):
        assert lint_source("x = ratio == 1.5\n") == []

    def test_ordering_comparisons_are_fine(self):
        assert lint_source("late = deadline < now + size / bw\n") == []


class TestSim004BareAssert:
    def test_assert_flagged_and_points_at_invariant(self):
        found = lint_source("assert x, 'boom'\n")
        assert [v.rule_id for v in found] == ["SIM004"]
        assert "invariant" in found[0].message

    def test_invariant_call_is_fine(self):
        source = "from repro.core.invariants import invariant\ninvariant(x, 'boom')\n"
        assert lint_source(source) == []


class TestSim005MutableDefault:
    def test_literal_and_constructor_defaults_flagged(self):
        source = "def f(a=[], b=dict(), *, c={1}):\n    return a, b, c\n"
        found = lint_source(source)
        assert len(found) == 3
        assert all(v.rule_id == "SIM005" for v in found)

    def test_none_and_immutable_defaults_are_fine(self):
        assert lint_source("def f(a=None, b=(), c=0, d='x'):\n    return a\n") == []

    def test_arbitrary_call_default_is_fine(self):
        # e.g. a frozen dataclass default: not list/dict/set-like.
        assert lint_source("def f(cfg=Config()):\n    return cfg\n") == []


class TestSim006Slots:
    def test_only_applies_on_hot_paths(self):
        source = "class Anywhere:\n    def __init__(self):\n        self.x = 1\n"
        assert lint_source(source, path="repro/analysis/foo.py") == []
        found = lint_source(source, path="repro/core/queues/foo.py")
        assert [v.rule_id for v in found] == ["SIM006"]
        assert "Anywhere" in found[0].message

    def test_packet_module_is_hot_path(self):
        source = "class P:\n    pass\n"
        found = lint_source(source, path="src/repro/network/packet.py")
        assert [v.rule_id for v in found] == ["SIM006"]

    def test_slots_dataclass_protocol_exception_pass(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Protocol\n"
            "class A:\n    __slots__ = ('x',)\n"
            "@dataclass\nclass B:\n    x: int = 0\n"
            "class C(Protocol):\n    x: int\n"
            "class D(ValueError):\n    pass\n"
        )
        assert lint_source(source, path="repro/core/queues/foo.py") == []


class TestPragmas:
    def test_line_pragma_suppresses_only_its_line(self):
        source = (
            "import random  # simlint: allow-global-random\n"
            "from random import randint\n"
        )
        found = lint_source(source)
        assert [(v.rule_id, v.line) for v in found] == [("SIM001", 2)]

    def test_multi_rule_pragma(self):
        source = (
            "import time, random\n"  # SIM001 fires here, unsuppressed
            "t = time.time()  # simlint: allow-wallclock, allow-global-random\n"
        )
        found = lint_source(source)
        assert [(v.rule_id, v.line) for v in found] == [("SIM001", 1)]

    def test_pragma_does_not_suppress_other_rules(self):
        source = "assert x  # simlint: allow-wallclock\n"
        found = lint_source(source)
        # The assert still fires; the mismatched pragma itself is NOT an
        # unknown-rule typo (wallclock exists), so only SIM004 reports.
        assert [v.rule_id for v in found] == ["SIM004"]

    def test_unknown_pragma_name_reported(self):
        found = lint_source("x = 1  # simlint: allow-wibble\n")
        assert [v.rule_id for v in found] == ["SIM000"]
        assert found[0].rule_name == "unknown-pragma"
        assert "wibble" in found[0].message

    def test_malformed_directive_reported(self):
        found = lint_source("x = 1  # simlint: disable-all\n")
        assert [v.rule_id for v in found] == ["SIM000"]

    def test_pragma_inside_string_is_ignored(self):
        source = "s = 'text with # simlint: allow-global-random inside'\n"
        assert lint_source(source) == []


class TestRunner:
    def test_parse_error_reported_not_raised(self):
        found = lint_source("def broken(:\n")
        assert [v.rule_id for v in found] == ["SIM000"]
        assert found[0].rule_name == "parse-error"

    def test_select_restricts_rules(self):
        source = "import random\nassert x\n"
        assert {v.rule_id for v in lint_source(source)} == {"SIM001", "SIM004"}
        only = lint_source(source, select=["SIM004"])
        assert {v.rule_id for v in only} == {"SIM004"}

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="SIM999"):
            lint_source("x = 1\n", select=["SIM999"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_violation_format_is_clickable(self):
        violation = lint_source("import random\n", path="pkg/mod.py")[0]
        assert violation.format().startswith("pkg/mod.py:1:0: SIM001 [global-random]")
        assert set(violation.to_dict()) == {
            "path",
            "line",
            "col",
            "rule",
            "name",
            "message",
            "provenance",
        }
