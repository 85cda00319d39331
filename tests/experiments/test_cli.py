"""Tests for the repro-qos command-line interface.

Simulation-backed commands run at micro scale so the whole module stays
in test-suite time budgets.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.cli.common import sim_configs
from repro.core.architectures import ARCHITECTURES
from repro.exec.summary import DEFAULT_CDF_SAMPLES, execute_config
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.export import result_to_json
from repro.experiments.figures import (
    DEFAULT_ARCHS,
    fig2_control,
    fig3_video,
    fig3_windows,
    fig4_best_effort,
    order_error_penalties,
    run_points,
    sweep,
)
from repro.sim import units
from repro.stats.report import format_row

FAST = ["--topology", "tiny", "--warmup-us", "50", "--measure-us", "120"]


@pytest.fixture
def no_simulation(monkeypatch):
    """Booby-trap every way a subcommand reaches the simulator: input it
    cannot use must be rejected before any of them is called."""

    def trap(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("simulated before rejecting the input")

    for target in (
        "repro.cli.run.run_experiment",  # run
        "repro.cli.probes.run_experiment",  # utilization
        "repro.exec.summary.run_experiment",  # execute_config: sweeps, replicate, profile
        "repro.analysis.measure_scheduling_cost",  # cost
    ):
        monkeypatch.setattr(target, trap)


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


def _parsers(parser, prefix=()):
    """Every parser in the tree, with the argv prefix that reaches it."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, prefix + (name,))


def _command_paths(parser):
    return (path for path, _ in _parsers(parser))


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


class TestSurface:
    """The restructure into ``repro/cli/`` modules may not shrink or
    re-default the command line silently.  ``SURFACE`` was captured at the
    last single-file ``cli.py`` (commit ab87a91) by printing ``_surface``
    of its parser; regenerate it the same way when a flag changes on purpose."""

    ARCHS = ["advanced-2vc", "ideal", "ideal-pipelined", "simple-2vc", "traditional-2vc"]
    POINT = {"--arch": ("advanced-2vc", ARCHS), "--load": (1.0, None)}
    SIM = {
        "--topology": ("small", ["medium", "paper", "scale512", "small", "tiny"]),
        "--seed": (1, None),
        "--warmup-us": (400.0, None),
        "--measure-us": (1500.0, None),
        "--time-scale": (0.02, None),
    }
    SWEEP = {"--jobs": (1, None), "--cache-dir": (None, None)}
    SURFACE = {
        "": {
            "command": (
                None,
                ["claims", "cost", "figure", "lint", "list", "metrics", "profile",
                 "replicate", "run", "trace", "utilization"],
            )
        },
        "run": {
            **POINT,
            "--json": (False, None),
            "--metrics-out": (None, None),
            "--trace-out": (None, None),
            "--trace-capacity": (100000, None),
            "--trace-spans": (None, None),
            "--span-policy": ("tail", ["head", "tail"]),
            "--span-rate": (0.01, None),
            "--span-capacity": (4096, None),
            "--trace-chrome": (None, None),
            "--heartbeat-us": (200.0, None),
            "--live": (False, None),
            **SIM,
        },
        "figure": {
            "figure": (None, ["fig2", "fig3", "fig4"]),
            "--loads": ([0.2, 0.4, 0.6, 0.8, 1.0], None),
            "--archs": (["traditional-2vc", "ideal", "simple-2vc", "advanced-2vc"], ARCHS),
            "--out": (None, None),
            **SIM,
            **SWEEP,
        },
        "claims": {"--load": (1.0, None), **SIM, **SWEEP},
        "cost": {"--load": (1.0, None), **SIM},
        "replicate": {**POINT, "--seeds": ([1, 2, 3], None), **SIM, **SWEEP},
        "utilization": {**POINT, "--hotspots": (8, None), **SIM},
        "list": {},
        "metrics": {"snapshots": (None, None), "--schema": (None, None)},
        "trace": {"trace_command": (None, ["blame", "export"])},
        "trace blame": {
            "spans": (None, None),
            "--top": (5, None),
            "--all": (False, None),
            "--json": (False, None),
        },
        "trace export": {"spans": (None, None), "-o/--out": ("trace.json", None)},
        "lint": {
            "paths": (["src"], None),
            "--format": ("text", ["json", "sarif", "text"]),
            "--select": (None, None),
            "--ignore": (None, None),
            "--list-rules": (False, None),
            "--project": (False, None),
            "--cache-dir": (None, None),
            "--explain": (None, None),
            "--fix": (False, None),
            "--dry-run": (False, None),
            "--baseline": (None, None),
            "--update-baseline": (False, None),
            "--profile": (None, None),
            "--memprofile": (None, None),
        },
        "profile": {"profile_command": (None, ["mem", "run"])},
        "profile run": {**POINT, "-o/--out": ("prof.pstats", None), **SIM},
        "profile mem": {
            **POINT,
            "--top": (512, None),
            "-o/--out": ("mem.json", None),
            **SIM,
        },
    }

    @staticmethod
    def _surface(parser):
        """path -> {flags or positional: (default, sorted choices)}."""
        return {
            " ".join(path): {
                "/".join(a.option_strings) or a.dest: (a.default, a.choices and sorted(a.choices))
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            }
            for path, sub in _parsers(parser)
        }

    def test_every_path_flag_choice_and_default_survives(self):
        assert self._surface(build_parser()) == self.SURFACE

    def test_list_imports_neither_linter_nor_executor_nor_analysis(self):
        """Heavy dependencies stay behind the subcommand that needs them.
        (``repro.obs`` is not on this list because ``cli/run.py`` and
        ``cli/dumps.py`` build sinks and read dumps, and every command
        module loads to build the parser; the network model no longer
        imports it -- ``tests/experiments/test_runner.py::
        TestUnobservedRunImports`` holds that line.)"""
        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['list']) == 0\n"
            "lazy = ('repro.lint', 'repro.exec', 'repro.analysis', 'cProfile', 'tracemalloc')\n"
            "sys.exit(', '.join(m for m in lazy if m in sys.modules) or 0)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, f"`list` imported: {result.stderr}"


class TestBadNumbers:
    """Out-of-range numbers are a usage error on every simulating
    subcommand: one ``repro-qos <command>: ...`` line on stderr and exit
    2, not a ``ValueError``/``SweepTaskError`` traceback from the config
    classes (which stay the single definition of the valid ranges) --
    and found before anything simulates."""

    TINY = ["--topology", "tiny"]
    CASES = [
        (["run", "--load", "-0.5"], "load"),
        (["run", "--measure-us", "0"], "measurement window"),
        (["run", "--warmup-us", "-5"], "warmup"),
        (["run", "--time-scale", "0"], "time_scale"),
        (["run", "--time-scale", "1e-9"], "time_scale below 5e-8"),
        (["figure", "fig2", "--time-scale", "1e-9"], "time_scale below 5e-8"),
        (["run", "--measure-us", "inf"], "infinity"),
        (["replicate", "--load", "-0.5"], "load"),
        (["utilization", "--measure-us", "0"], "measurement window"),
        (["cost", "--load", "-0.5"], "load"),
        (["profile", "run", "--warmup-us", "-5"], "warmup"),
        (["profile", "mem", "--load", "-0.5"], "load"),
        (["figure", "fig2", "--measure-us", "0"], "measurement window"),
        (["figure", "fig3", "--loads", "0.5", "-0.5"], "load"),
        (["claims", "--load", "-0.5"], "load"),
        (["figure", "fig2", "--jobs", "0"], "jobs"),
        (["figure", "fig4", "--out", "fig.txt"], "unsupported export format"),
        (["run", "--metrics-out", "m.json", "--heartbeat-us", "0"], "heartbeat"),
        (["run", "--trace-out", "t.jsonl", "--trace-capacity", "0"], "capacity"),
        (["replicate", "--seeds", "1", "1"], "duplicate seeds"),
    ]

    @pytest.mark.parametrize(
        "argv, reason", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_exits_2_with_one_line(
        self, argv, reason, capsys, no_simulation, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # the relative output names above land here, if ever
        assert main([*argv, *self.TINY]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-qos {argv[0]}: ")
        assert reason in line


class TestUnwritableOutputs:
    """An output path that cannot be opened is a usage error found
    *before* simulating: one ``repro-qos <command>: ...`` line and exit 2,
    not an ``OSError`` traceback after the run."""

    #: argv up to the output flag; SPANS stands for a valid span dump.
    CASES = {
        "--metrics-out": ["run", *FAST, "--metrics-out"],
        "--trace-out": ["run", *FAST, "--trace-out"],
        "--trace-spans": ["run", *FAST, "--trace-spans"],
        "--trace-chrome": ["run", *FAST, "--trace-chrome"],
        "figure --out": ["figure", "fig2", *FAST, "--out"],
        "profile run -o": ["profile", "run", *FAST, "-o"],
        "profile mem -o": ["profile", "mem", *FAST, "-o"],
        "trace export -o": ["trace", "export", "SPANS", "-o"],
    }

    #: A cache directory is made lazily, so a missing one is fine; what
    #: makes it unusable is what already sits where it would go.
    CACHE_DIR = ["figure", "fig2", *FAST, "--cache-dir"]
    PARAMS = [
        *(pytest.param(argv, None, id=name) for name, argv in CASES.items()),
        pytest.param(CACHE_DIR, "file", id="--cache-dir under a file"),
        pytest.param(CACHE_DIR, "read-only", id="--cache-dir under a read-only directory"),
    ]

    @pytest.mark.parametrize("argv, in_the_way", PARAMS)
    def test_exits_2_before_simulating(self, argv, in_the_way, tmp_path, capsys, no_simulation):
        spans = tmp_path / "spans.jsonl"
        spans.write_text('{"type": "span-trace-summary"}\n', encoding="utf-8")
        argv = [str(spans) if arg == "SPANS" else arg for arg in argv]
        target = tmp_path / "no_such_dir" / "out.json"
        if in_the_way == "file":
            target.parent.write_text("", encoding="utf-8")
        elif in_the_way == "read-only":
            if os.geteuid() == 0:
                pytest.skip("root can write into a read-only directory")
            target.parent.mkdir(mode=0o555)
        assert main([*argv, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-qos {argv[0]}: ")
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


class TestTimeScale:
    """``figure fig2|fig4`` and ``claims`` run the mix ``run`` runs -- Table 1
    with video compressed by ``--time-scale`` -- through the one config
    reader; they used to accept the flag, drop it and simulate the unscaled
    25 fps mix (9 % of the video share at load 1.0 on ``small``)."""

    @staticmethod
    def _sweep(archs, time_scale):
        return sweep(
            archs, (1.0,), topology="tiny", warmup_ns=units.us(50), measure_ns=units.us(120),
            mix_factory=lambda load: scaled_video_mix(load, time_scale),
        )

    def test_fig4_is_the_scaled_mix_sweep(self, capsys):
        archs = ("advanced-2vc",)
        assert main(["figure", "fig4", "--loads", "1.0", "--archs", *archs, *FAST]) == 0
        expected = fig4_best_effort(archs, (1.0,), results=self._sweep(archs, 0.02))
        assert capsys.readouterr().out == expected.text() + "\n"

    def test_claims_reads_the_flag(self, capsys):
        assert main(["claims", "--load", "1.0", "--time-scale", "0.05", *FAST]) == 0
        out = capsys.readouterr().out
        penalties = order_error_penalties(load=1.0, results=self._sweep(DEFAULT_ARCHS, 0.05))
        for arch, factor in penalties.items():
            assert f"  {ARCHITECTURES[arch].label:<18} x{factor:.3f}\n" in out


class TestOnePointOneSetOfNumbers:
    """A finished run is read one way, through its ``RunSummary``.  ``run``
    used to take quantiles over the raw reservoir while ``figure``, ``claims``
    and ``replicate`` read the summary's 4 096 order statistics, so one point
    had two p99s (83.548 vs 83.97 us below); and the figure functions could
    also run their own sweep, with their own idea of the workload."""

    #: control completes 11 046 messages here, past the summary's sample cap
    POINT = ["--arch", "advanced-2vc", "--load", "1.0", "--topology", "small"]

    def test_run_figure_and_export_agree(self, capsys):
        def stdout(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        def row(text, label):
            (line,) = [line for line in text.splitlines() if line.startswith(label)]
            return line[len(label):].split()

        (config,) = sim_configs(build_parser().parse_args(["run", *self.POINT])).values()
        summary = execute_config(config)
        assert summary.get("control").messages > DEFAULT_CDF_SAMPLES

        exported = json.loads(result_to_json(summary))
        run_json = json.loads(stdout(["run", "--json", *self.POINT]))
        del exported["wall_seconds"], run_json["wall_seconds"]
        assert run_json == exported

        latency = exported["classes"]["control"]["message_latency_ns"]
        printed = format_row(
            [units.ns_to_us(latency[key]) for key in ("mean", "p99", "max")], (0, 0, 0)
        ).split()
        # run: class, messages, avg lat, p99, max, ...; fig2: architecture, load, avg lat, p99, max
        assert row(stdout(["run", *self.POINT]), "control")[1:4] == printed
        fig2 = stdout(["figure", "fig2", "--archs", "advanced-2vc", "--loads", "1.0",
                       "--topology", "small"])
        assert row(fig2, "Advanced 2 VCs")[1:4] == printed

    @pytest.mark.parametrize(
        "draw", [fig2_control, fig3_video, fig4_best_effort, order_error_penalties]
    )
    def test_figure_functions_only_draw(self, draw):
        parameters = inspect.signature(draw).parameters
        assert not parameters.keys() & {
            "topology", "seed", "warmup_ns", "measure_ns", "executor", "time_scale"
        }
        assert parameters["results"].default is inspect.Parameter.empty

    def test_fig3_takes_its_frame_target_from_the_results(self):
        config = ExperimentConfig(
            architecture="ideal", load=0.4, topology="tiny", mix=scaled_video_mix(0.4, 0.02)
        )
        results = run_points({("ideal", 0.4): fig3_windows(config)})
        series = fig3_video(("ideal",), (0.4,), results=results)
        assert series.notes == ["frame-latency target = 200 us (time_scale=0.02)"]
        ((_, _, _, lat_over_target, _, _),) = series.rows
        assert lat_over_target == pytest.approx(1.0, abs=0.15)  # 0.2 against a 1000 us target


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
