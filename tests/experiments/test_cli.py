"""Tests for the repro-qos command-line interface.

Simulation-backed commands run at micro scale so the whole module stays
in test-suite time budgets.
"""

import argparse
import json

import pytest

from repro.cli import build_parser, main

FAST = ["--topology", "tiny", "--warmup-us", "50", "--measure-us", "120"]


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_architecture_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--arch", "bogus"])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--topology", "gigantic"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig3"])
        assert args.figure == "fig3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])


def _command_paths(parser, prefix=()):
    """Every parser in the tree, as the argv prefix that reaches it."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _command_paths(child, prefix + (name,))


class TestHelp:
    """``--help`` %-formats every help string it shows, so one unescaped
    ``%`` makes it raise instead of print; nothing else exercises that."""

    @pytest.mark.parametrize(
        "path", list(_command_paths(build_parser())), ids=lambda p: " ".join(p) or "top-level"
    )
    def test_help_prints_and_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*path, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_every_subcommand_is_covered(self):
        paths = set(_command_paths(build_parser()))
        assert {(), ("run",), ("replicate",), ("trace", "blame"), ("profile", "mem")} <= paths


class TestBadNumbers:
    """Out-of-range numbers are a usage error on every simulating
    subcommand: one ``repro-qos <command>: ...`` line on stderr and exit
    2, not a ``ValueError``/``SweepTaskError`` traceback from the config
    classes (which stay the single definition of the valid ranges)."""

    TINY = ["--topology", "tiny"]
    CASES = [
        (["run", "--load", "-0.5"], "load"),
        (["run", "--measure-us", "0"], "measurement window"),
        (["run", "--warmup-us", "-5"], "warmup"),
        (["run", "--time-scale", "0"], "time_scale"),
        (["run", "--measure-us", "inf"], "infinity"),
        (["replicate", "--load", "-0.5"], "load"),
        (["utilization", "--measure-us", "0"], "measurement window"),
        (["cost", "--load", "-0.5"], "load"),
        (["profile", "run", "--warmup-us", "-5"], "warmup"),
        (["profile", "mem", "--load", "-0.5"], "load"),
        (["figure", "fig2", "--measure-us", "0"], "measurement window"),
        (["figure", "fig3", "--loads", "0.5", "-0.5"], "load"),
        (["claims", "--load", "-0.5"], "load"),
    ]

    @pytest.mark.parametrize(
        "argv, reason", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_exits_2_with_one_line(self, argv, reason, capsys):
        assert main([*argv, *self.TINY]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-qos {argv[0]}: ")
        assert reason in line


class TestUnwritableOutputs:
    """An output path that cannot be opened is a usage error found
    *before* simulating: one ``repro-qos run: ...`` line and exit 2, not
    an ``OSError`` traceback after the run."""

    @pytest.mark.parametrize(
        "flag", ["--metrics-out", "--trace-out", "--trace-spans", "--trace-chrome"]
    )
    def test_exits_2_before_simulating(self, flag, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("simulated before checking the output path")

        monkeypatch.setattr("repro.cli.run_experiment", no_run)
        target = tmp_path / "no_such_dir" / "out.json"
        assert main(["run", *FAST, flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-qos run: ")
        assert "no_such_dir" in line


class TestListCommand:
    def test_lists_architectures_and_presets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("traditional-2vc", "ideal", "simple-2vc", "advanced-2vc"):
            assert name in out
        assert "128 hosts" in out


class TestRunCommand:
    def test_table_output(self, capsys):
        assert main(["run", "--arch", "advanced-2vc", "--load", "0.5", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Advanced 2 VCs" in out
        assert "control" in out

    def test_json_output(self, capsys):
        assert main(["run", "--load", "0.5", "--json", *FAST]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["architecture"] == "advanced-2vc"
        assert doc["classes"]["control"]["packets"] > 0


class TestFigureCommand:
    def test_fig2_text(self, capsys):
        assert (
            main(
                ["figure", "fig2", "--loads", "0.5", "--archs", "ideal", "simple-2vc", *FAST]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Ideal" in out

    def test_fig4_csv_export(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.csv"
        assert (
            main(
                [
                    "figure", "fig4", "--loads", "0.5", "--archs", "ideal",
                    "--out", str(out_path), *FAST,
                ]
            )
            == 0
        )
        text = out_path.read_text()
        assert text.startswith("architecture,load")


class TestClaimsCommand:
    def test_prints_penalties(self, capsys):
        assert main(["claims", "--load", "0.8", *FAST]) == 0
        out = capsys.readouterr().out
        assert "relative to Ideal" in out
        assert "Advanced 2 VCs" in out


class TestReplicateCommand:
    def test_prints_confidence_intervals(self, capsys):
        assert (
            main(["replicate", "--load", "0.5", "--seeds", "1", "2", *FAST]) == 0
        )
        out = capsys.readouterr().out
        assert "2 seeds" in out
        assert "control" in out
        assert "[" in out  # the CI brackets


class TestCostCommand:
    def test_prints_cost_table(self, capsys):
        assert main(["cost", "--load", "0.5", *FAST]) == 0
        out = capsys.readouterr().out
        assert "comparisons/pkt" in out
        assert "ideal" in out


class TestUtilizationCommand:
    def test_prints_hotspots_and_fairness(self, capsys):
        assert main(["utilization", "--load", "0.5", "--hotspots", "3", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Hottest links" in out
        assert "fairness index" in out


class TestFigure3Command:
    def test_fig3_text(self, capsys):
        assert (
            main(["figure", "fig3", "--loads", "0.5", "--archs", "ideal", *FAST]) == 0
        )
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "lat/target" in out


class TestParallelSweep:
    """--jobs / --cache-dir: determinism and warm-replay guarantees."""

    FIG2 = [
        "figure", "fig2", "--loads", "0.5",
        "--archs", "ideal", "traditional-2vc", *FAST,
    ]

    def test_jobs4_stdout_byte_identical_to_jobs1(self, capsys):
        """The acceptance criterion: figure output is byte-identical at
        any --jobs (deterministic submission-index merge)."""
        assert main([*self.FIG2, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*self.FIG2, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_stats_go_to_stderr(self, capsys):
        assert main([*self.FIG2, "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "[sweep:" not in captured.out
        assert "[sweep: 2 points, 0 cached, 2 executed, jobs=2]" in captured.err

    def test_warm_cache_rerun_executes_nothing(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert main([*self.FIG2, *cache]) == 0
        cold = capsys.readouterr()
        assert "2 executed" in cold.err
        assert main([*self.FIG2, *cache]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "[sweep: 2 points, 2 cached, 0 executed, jobs=1]" in warm.err

    def test_claims_accepts_jobs(self, capsys):
        assert main(["claims", "--load", "0.5", "--jobs", "2", *FAST]) == 0
        captured = capsys.readouterr()
        assert "relative to Ideal" in captured.out
        assert "4 points" in captured.err

    def test_replicate_jobs_matches_serial(self, capsys):
        rep = ["replicate", "--load", "0.5", "--seeds", "1", "2", *FAST]
        assert main([*rep, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*rep, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
