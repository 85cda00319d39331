"""Tests for the scale-soundness layer (SIM501-SIM506).

Covers the fixture matrix (each bad fixture flags exactly its rule,
each good fixture is clean), the container-lifecycle and pool-flow
dataflow facts as units, the SIM502/506 machine fixes and their
idempotence, pragma suppression, ``--select`` interaction, the
allocation-guided ranking (``--memprofile``) end to end including the
``repro-qos profile mem`` producer, and the cache round-trip of the
scale facts.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import apply_fixes, lint_project
from repro.lint.hotpath import MemProfileIndex
from repro.lint.projectmodel import extract_summary

HERE = Path(__file__).parent
PROJECT_FIXTURES = HERE / "fixtures" / "project"

FIXTURE_MATRIX = [
    ("SIM501", "sim501_unbounded_hot_growth", "sim501_bounded_growth"),
    ("SIM502", "sim502_linear_membership", "sim502_set_membership"),
    ("SIM503", "sim503_pool_leak", "sim503_pool_discipline"),
    ("SIM504", "sim504_keyed_growth", "sim504_keyed_churn"),
    ("SIM505", "sim505_hot_rebuild", "sim505_hoisted_rebuild"),
    ("SIM506", "sim506_closure_retention", "sim506_bound_callback"),
]


class TestScaleFacts:
    def test_append_in_loop_records_grow_op(self):
        summary = extract_summary(
            "class Q:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def pump(self, batch):\n"
            "        for item in batch:\n"
            "            self.items.append(item)\n",
            "mod.py",
        )
        (grow,) = summary.functions["Q.pump"].container_ops
        assert grow["attr"] == "items"
        assert grow["op"] == "grow"
        assert grow["method"] == "append"
        assert grow["in_loop"] is True
        fact = summary.classes["Q"]["containers"]["items"]
        assert fact["kind"] == "list"
        assert fact["empty"] is True
        assert fact["bounded"] is False

    def test_deque_maxlen_is_bounded(self):
        summary = extract_summary(
            "from collections import deque\n"
            "class R:\n"
            "    def __init__(self, cap):\n"
            "        self.ring = deque(maxlen=cap)\n",
            "mod.py",
        )
        fact = summary.classes["R"]["containers"]["ring"]
        assert fact["kind"] == "deque"
        assert fact["bounded"] is True

    def test_module_qualified_heappush_is_a_grow(self):
        summary = extract_summary(
            "import heapq\n"
            "class H:\n"
            "    def __init__(self):\n"
            "        self.heap = []\n"
            "    def push(self, item):\n"
            "        heapq.heappush(self.heap, item)\n",
            "mod.py",
        )
        ops = summary.functions["H.push"].container_ops
        assert [(o["attr"], o["op"]) for o in ops] == [("heap", "grow")]

    def test_unreleased_mint_is_a_never_flow(self):
        summary = extract_summary(
            "class Burst:\n"
            "    def __init__(self, factory):\n"
            "        self.factory = factory\n"
            "    def fire(self, size):\n"
            "        pkt = self.factory.mint(size=size)\n"
            "        pkt.deadline = size + 10\n",
            "mod.py",
        )
        (flow,) = summary.functions["Burst.fire"].pool_flows
        assert flow["api"] == "object-pool"
        assert flow["released"] == "never"
        assert flow["escapes"] is False

    def test_recycled_mint_is_released_always(self):
        summary = extract_summary(
            "class Burst:\n"
            "    def __init__(self, factory):\n"
            "        self.factory = factory\n"
            "    def fire(self, size):\n"
            "        pkt = self.factory.mint(size=size)\n"
            "        pkt.deadline = size + 10\n"
            "        self.factory.recycle(pkt)\n",
            "mod.py",
        )
        (flow,) = summary.functions["Burst.fire"].pool_flows
        assert flow["released"] == "always"

    def test_escaping_mint_is_the_callers_problem(self):
        summary = extract_summary(
            "class Burst:\n"
            "    def __init__(self, factory):\n"
            "        self.factory = factory\n"
            "    def fire(self, size):\n"
            "        return self.factory.mint(size=size)\n",
            "mod.py",
        )
        flows = summary.functions["Burst.fire"].pool_flows
        assert all(f["escapes"] for f in flows) or flows == []


class TestFixtureMatrix:
    @pytest.mark.parametrize(
        "rule_id,bad_dir,good_dir",
        FIXTURE_MATRIX,
        ids=[row[0] for row in FIXTURE_MATRIX],
    )
    def test_bad_fixture_flags_exactly_its_rule(self, rule_id, bad_dir, good_dir):
        violations, _ = lint_project([PROJECT_FIXTURES / "bad" / bad_dir])
        assert violations, f"{bad_dir} produced no findings"
        assert {v.rule_id for v in violations} == {rule_id}

    @pytest.mark.parametrize(
        "rule_id,bad_dir,good_dir",
        FIXTURE_MATRIX,
        ids=[row[0] for row in FIXTURE_MATRIX],
    )
    def test_good_fixture_is_clean(self, rule_id, bad_dir, good_dir):
        violations, _ = lint_project([PROJECT_FIXTURES / "good" / good_dir])
        assert violations == [], "\n".join(v.format() for v in violations)


class TestPoolLeakInjection:
    """SIM503 catches an injected PacketFactory mint-without-recycle."""

    LEAKY = (
        '"""Pooled burst generator missing its recycle."""\n'
        "\n"
        "\n"
        "class Burst:\n"
        "    def __init__(self, factory):\n"
        "        self.factory = factory\n"
        "\n"
        "    def fire(self, size):\n"
        "        pkt = self.factory.mint(size=size)\n"
        "        pkt.deadline = size + 10\n"
    )

    def test_injected_leak_is_flagged(self, tmp_path):
        (tmp_path / "burst.py").write_text(self.LEAKY, encoding="utf-8")
        violations, _ = lint_project([tmp_path])
        (violation,) = violations
        assert violation.rule_id == "SIM503"
        assert "never released" in violation.message

    def test_recycle_restores_discipline(self, tmp_path):
        fixed = self.LEAKY + "        self.factory.recycle(pkt)\n"
        (tmp_path / "burst.py").write_text(fixed, encoding="utf-8")
        violations, _ = lint_project([tmp_path])
        assert violations == [], "\n".join(v.format() for v in violations)


class TestMachineFixes:
    def test_sim502_fix_switches_to_a_set(self, tmp_path):
        target = tmp_path / "sim502"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim502_linear_membership", target
        )
        violations, _ = lint_project([target])
        report = apply_fixes(violations, dry_run=False)
        assert report.files_changed
        text = (target / "core" / "queues" / "dedup.py").read_text(
            encoding="utf-8"
        )
        assert "self._live = set()" in text
        assert "self._live.add(" in text
        assert ".append(" not in text
        after, _ = lint_project([target])
        assert after == [], "\n".join(v.format() for v in after)

    def test_sim502_fix_is_idempotent(self, tmp_path):
        target = tmp_path / "sim502"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim502_linear_membership", target
        )
        violations, _ = lint_project([target])
        apply_fixes(violations, dry_run=False)
        after, _ = lint_project([target])
        report = apply_fixes(after, dry_run=False)
        assert not report.files_changed

    def test_sim502_fixed_module_still_dedups(self, tmp_path):
        target = tmp_path / "sim502"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim502_linear_membership", target
        )
        violations, _ = lint_project([target])
        apply_fixes(violations, dry_run=False)
        text = (target / "core" / "queues" / "dedup.py").read_text(
            encoding="utf-8"
        )
        namespace: dict = {}
        exec(compile(text, "dedup.py", "exec"), namespace)
        index = namespace["MemberIndex"]()
        assert index.admit(7) is True
        assert index.admit(7) is False
        index.retire(7)
        assert index.admit(7) is True

    def test_sim506_fix_binds_the_lambda_default(self, tmp_path):
        target = tmp_path / "sim506"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim506_closure_retention", target
        )
        violations, _ = lint_project([target])
        report = apply_fixes(violations, dry_run=False)
        assert report.files_changed
        text = (target / "flusher.py").read_text(encoding="utf-8")
        assert "lambda batch=batch:" in text
        # The local-def retention has no machine fix; it remains, but a
        # second fix pass has nothing left to apply.
        after, _ = lint_project([target])
        assert [v for v in after if v.fix is not None] == []
        report = apply_fixes(after, dry_run=False)
        assert not report.files_changed


class TestPragmas:
    @pytest.mark.parametrize(
        "spelling", ["allow-unbounded-hot-growth", "allow-sim501"]
    )
    def test_pragma_on_offending_line_suppresses(self, tmp_path, spelling):
        target = tmp_path / "sim501"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth", target
        )
        module = target / "core" / "queues" / "ticklog.py"
        lines = module.read_text(encoding="utf-8").splitlines()
        lines[10] += f"  # simlint: {spelling}"
        module.write_text("\n".join(lines) + "\n", encoding="utf-8")
        violations, _ = lint_project([target])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        target = tmp_path / "sim501"
        shutil.copytree(
            PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth", target
        )
        module = target / "core" / "queues" / "ticklog.py"
        lines = module.read_text(encoding="utf-8").splitlines()
        lines[0] += "  # simlint: allow-unbounded-hot-growth"
        module.write_text("\n".join(lines) + "\n", encoding="utf-8")
        violations, _ = lint_project([target])
        assert [v.rule_id for v in violations] == ["SIM501"]


def _memdump(path: Path, sites, *, peak_bytes=1 << 20) -> Path:
    payload = {
        "schema": "simlint-memprofile/v1",
        "total_bytes": sum(s["size_bytes"] for s in sites),
        "peak_bytes": peak_bytes,
        "events_executed": 1000,
        "sites": sites,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestMemProfileRanking:
    def _ranked(self, tmp_path):
        bad = PROJECT_FIXTURES / "bad"
        dump = _memdump(
            tmp_path / "mem.json",
            [
                {
                    "file": str(
                        bad
                        / "sim501_unbounded_hot_growth"
                        / "core"
                        / "queues"
                        / "ticklog.py"
                    ),
                    "line": 11,
                    "size_bytes": 8_000_000,
                    "count": 100_000,
                },
                {
                    "file": str(bad / "sim504_keyed_growth" / "registry.py"),
                    "line": 9,
                    "size_bytes": 1_000,
                    "count": 10,
                },
            ],
        )
        return lint_project(
            [
                bad / "sim501_unbounded_hot_growth",
                bad / "sim504_keyed_growth",
            ],
            memprofile=dump,
        )

    def test_measured_findings_rank_by_bytes(self, tmp_path):
        violations, stats = self._ranked(tmp_path)
        by_rule = {v.rule_id: v for v in violations}
        assert by_rule["SIM501"].profile["bucket"] == "hot"
        assert by_rule["SIM501"].profile["alloc_bytes"] == 8_000_000
        assert by_rule["SIM504"].profile["bucket"] == "warm"
        mem = stats["memprofile"]
        assert mem["ranked"] == 2 and mem["matched"] == 2
        assert (mem["hot"], mem["warm"], mem["cold"]) == (1, 1, 0)

    def test_unmeasured_findings_demote_to_cold(self, tmp_path):
        dump = _memdump(tmp_path / "mem.json", [])
        violations, stats = lint_project(
            [PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"],
            memprofile=dump,
        )
        (violation,) = violations
        assert violation.profile["bucket"] == "cold"
        assert violation.format().split("] ")[1].startswith("note: ")
        assert stats["memprofile"]["cold"] == 1

    def test_hot_rendering_shows_bytes(self, tmp_path):
        violations, _ = self._ranked(tmp_path)
        hot = next(v for v in violations if v.rule_id == "SIM501")
        assert "hot (7.6 MB): " in hot.format()

    def test_ranking_survives_the_dict_round_trip(self, tmp_path):
        from repro.lint.violations import Violation

        violations, _ = self._ranked(tmp_path)
        for violation in violations:
            replayed = Violation.from_dict(violation.to_dict())
            assert replayed.profile == violation.profile

    def test_time_and_memory_rankings_are_disjoint(self, tmp_path):
        # --memprofile only touches SIM5xx findings, so a combined
        # --profile/--memprofile run never double-ranks a finding.
        violations, _ = self._ranked(tmp_path)
        assert all(v.rule_id.startswith("SIM5") for v in violations)
        assert all(
            "alloc_bytes" in v.profile
            for v in violations
            if v.profile is not None
        )

    def test_mem_digest_invalidates_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        target = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        dump = _memdump(tmp_path / "mem.json", [])
        _, cold = lint_project(
            [target], cache_dir=cache_dir, memprofile=dump
        )
        _, warm = lint_project(
            [target], cache_dir=cache_dir, memprofile=dump
        )
        assert cold["misses"] == 1 and warm["hits"] == 1
        # A different dump is a different ruleset fingerprint: re-parse.
        other = _memdump(
            tmp_path / "other.json",
            [
                {
                    "file": "x.py",
                    "line": 1,
                    "size_bytes": 1,
                    "count": 1,
                }
            ],
        )
        _, invalidated = lint_project(
            [target], cache_dir=cache_dir, memprofile=other
        )
        assert invalidated["misses"] == 1


class TestMemProfileIndex:
    def test_matches_by_path_suffix(self, tmp_path):
        dump = _memdump(
            tmp_path / "mem.json",
            [
                {
                    "file": "/abs/core/queues/ring.py",
                    "line": 10,
                    "size_bytes": 42,
                    "count": 1,
                }
            ],
        )
        index = MemProfileIndex.load(dump)
        assert list(index.sites_for("core/queues/ring.py")) == [(10, 42)]
        assert list(index.sites_for("other/ring.py")) == []

    def test_missing_dump_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MemProfileIndex.load(tmp_path / "nope.json")

    def test_garbage_dump_raises_value_error(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("this is not json", encoding="utf-8")
        with pytest.raises(ValueError, match="profile mem"):
            MemProfileIndex.load(garbage)

    def test_wrong_schema_raises_value_error(self, tmp_path):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "bogus/v9"}), encoding="utf-8")
        with pytest.raises(ValueError, match="profile mem"):
            MemProfileIndex.load(wrong)


class TestCacheRoundTrip:
    def test_warm_run_reparses_nothing_and_agrees(self, tmp_path):
        cache_dir = tmp_path / "cache"
        target = PROJECT_FIXTURES / "bad" / "sim502_linear_membership"
        cold, cold_stats = lint_project([target], cache_dir=cache_dir)
        warm, warm_stats = lint_project([target], cache_dir=cache_dir)
        assert cold_stats["misses"] == 1 and cold_stats["hits"] == 0
        assert warm_stats["misses"] == 0 and warm_stats["hits"] == 1
        # The scale facts (container ops incl. fix spans) survived the
        # to_dict/from_dict round trip: identical findings either way.
        assert warm == cold
        assert any(v.fix for v in warm)


class TestCli:
    @pytest.mark.parametrize(
        "rule_id",
        ["SIM501", "SIM502", "SIM503", "SIM504", "SIM505", "SIM506"],
    )
    def test_explain_covers_the_family(self, rule_id, capsys):
        assert main(["lint", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out
        assert "example" in out.lower()

    def test_select_prefix_gates_exit_code(self):
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        assert main(["lint", "--project", "--select", "SIM5", str(bad)]) == 1
        assert main(["lint", "--project", "--select", "SIM1", str(bad)]) == 0

    def test_memprofile_without_project_exits_two(self, capsys, tmp_path):
        dump = _memdump(tmp_path / "mem.json", [])
        assert main(["lint", "--memprofile", str(dump), str(tmp_path)]) == 2
        assert "--memprofile requires --project" in capsys.readouterr().err

    def test_unreadable_memprofile_exits_two(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json", encoding="utf-8")
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        assert (
            main(
                [
                    "lint",
                    "--project",
                    "--memprofile",
                    str(garbage),
                    str(bad),
                ]
            )
            == 2
        )
        assert "profile mem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sites",
        [[1], [{"file": "x.py", "line": None, "size_bytes": 1, "count": 1}]],
        ids=["site-not-an-object", "null-line"],
    )
    def test_corrupt_memprofile_exits_two(self, capsys, tmp_path, sites):
        dump = tmp_path / "mem.json"
        payload = {"schema": "simlint-memprofile/v1", "sites": sites}
        dump.write_text(json.dumps(payload), encoding="utf-8")
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        argv = ["lint", "--project", "--memprofile", str(dump), str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-qos lint: ") and err.count("\n") == 1
        assert "profile mem" in err

    def test_cold_findings_do_not_gate_the_cli(self, tmp_path):
        dump = _memdump(tmp_path / "mem.json", [])
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        assert (
            main(
                ["lint", "--project", "--memprofile", str(dump), str(bad)]
            )
            == 0
        )

    def test_sarif_carries_the_memprofile_attachment(self, tmp_path, capsys):
        dump = _memdump(tmp_path / "mem.json", [])
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        argv = [
            "lint",
            "--project",
            "--format",
            "sarif",
            "--memprofile",
            str(dump),
            str(bad),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["runs"][0]["results"]
        assert result["properties"]["profile"]["bucket"] == "cold"

    def test_profile_mem_end_to_end(self, tmp_path, capsys):
        dump = tmp_path / "mem.json"
        argv = [
            "profile",
            "mem",
            "--topology",
            "tiny",
            "--warmup-us",
            "10",
            "--measure-us",
            "40",
            "-o",
            str(dump),
        ]
        assert main(argv) == 0
        payload = json.loads(dump.read_text(encoding="utf-8"))
        assert payload["schema"] == "simlint-memprofile/v1"
        assert payload["peak_bytes"] > 0
        assert payload["events_executed"] > 0
        assert payload["sites"], "no allocation sites recorded"
        site = payload["sites"][0]
        assert set(site) == {"file", "line", "size_bytes", "count"}
        # The dump is immediately consumable by --memprofile.
        bad = PROJECT_FIXTURES / "bad" / "sim501_unbounded_hot_growth"
        assert (
            main(
                ["lint", "--project", "--memprofile", str(dump), str(bad)]
            )
            == 0
        )
        assert "[memprofile:" in capsys.readouterr().err
