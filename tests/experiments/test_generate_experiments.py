"""The record's declared point set, checked without simulating anything.

``scripts/generate_experiments_md.py`` is declare -> check -> run ->
render; everything before *run* is plain data these tests can read.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.exec.digest import config_digest
from repro.experiments.config import ExperimentConfig
from repro.sim import units

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", ROOT / "scripts" / "generate_experiments_md.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def points(generator):
    return generator.declare("tiny", seed=1)


def recorded_in():
    """DESIGN.md section 5's last column: exp id -> (point set, section)
    for every row written as ```points` -> Section``."""
    pointers = {}
    for line in (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        match = re.fullmatch(r"`([\w-]+)` → ([^,(]+).*", cells[-2]) if len(cells) > 3 else None
        if match:
            pointers[cells[1].strip("`")] = (match[1], match[2].strip())
    return pointers


class TestDeclaredPoints:
    def test_every_point_is_a_config(self, generator, points):
        assert points and all(isinstance(c, ExperimentConfig) for c in points.values())
        assert {c.topology for c in points.values()} == {"tiny"}
        more = generator.declare("tiny", seed=1, paper_scale=True)
        extra = {(key[0], config.topology) for key, config in more.items() if key not in points}
        assert extra == {("paper-scale", "paper")}

    def test_duplicates_coalesce(self, points):
        """Fewer simulations than declared points, by digest: the ablation
        grids' gentle corners and the 2-VC contenders of ``vc-count`` *are*
        the sweep's full-load points."""
        digests = {key: config_digest(config) for key, config in points.items()}
        assert len(set(digests.values())) < len(points)
        advanced = digests["sweep", ("advanced-2vc", 1.0)]
        assert digests["abl-order-error", (8 * units.KB, 20 * units.US, "advanced-2vc")] == advanced
        assert digests["abl-eligible", (20 * units.US, 1.0)] == advanced
        assert digests["abl-buffer", 8 * units.KB] == advanced
        assert digests["vc-count", "advanced-2vc"] == advanced
        assert digests["vc-count", "traditional-4vc"] != digests["vc-count", "traditional-2vc"]

    def test_every_design_pointer_lands(self, points):
        pointers = recorded_in()
        assert {"fig2", "fig3", "fig4", "abl-order-error", "vc-count"} <= set(pointers)
        sections = {section for section, _ in points}
        headings = [
            line[3:] for line in (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()
            if line.startswith("## ")
        ]
        for exp_id, (point_set, heading) in pointers.items():
            assert point_set in sections, f"{exp_id}: no declared point under {point_set!r}"
            assert any(h.startswith(heading) for h in headings), f"{exp_id}: no section {heading!r}"


class TestSurface:
    def test_option_strings_are_the_six(self, generator):
        options = {s for action in generator.build_parser()._actions for s in action.option_strings}
        assert options - {"-h", "--help"} == {
            "--topology", "--seed", "--paper-scale", "--jobs", "--cache-dir", "--out",
        }

    def test_a_typo_is_a_usage_error_not_a_worker_traceback(self, generator, capsys):
        with pytest.raises(SystemExit) as exit_info:
            generator.build_parser().parse_args(["--topology", "tinny"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'tinny'" in capsys.readouterr().err
