"""Tests for the figure-sweep layer (using one tiny shared sweep)."""

import pytest

from repro.experiments.config import scaled_video_mix
from repro.experiments.figures import (
    FigureSeries,
    fig2_control,
    fig3_video,
    fig4_best_effort,
    order_error_penalties,
    sweep,
)
from repro.sim import units

ARCHS = ("ideal", "traditional-2vc")
LOADS = (0.5,)


@pytest.fixture(scope="module")
def results():
    return sweep(
        ARCHS,
        LOADS,
        topology="tiny",
        seed=2,
        warmup_ns=80 * units.US,
        # long enough for video frames (200 us target, 800 us period at
        # this scale) born after warm-up to complete inside the window
        measure_ns=600 * units.US,
        mix_factory=lambda load: scaled_video_mix(load, 0.02),
    )


class TestSweep:
    def test_one_result_per_cell(self, results):
        assert set(results) == {(a, l) for a in ARCHS for l in LOADS}

    def test_architectures_differ(self, results):
        ideal = results[("ideal", 0.5)].get("control").packet_latency.mean
        trad = results[("traditional-2vc", 0.5)].get("control").packet_latency.mean
        assert ideal != trad


class TestFigureFunctions:
    def test_fig2_rows_and_cdfs(self, results):
        series = fig2_control(ARCHS, LOADS, results=results, cdf_points=5)
        assert len(series.rows) == len(ARCHS) * len(LOADS)
        assert set(series.cdfs) == {"Ideal", "Traditional 2 VCs"}
        for curve in series.cdfs.values():
            assert len(curve) == 5
            assert curve[-1][1] == 1.0

    def test_fig3_reports_scale_free_ratio(self, results):
        series = fig3_video(ARCHS, LOADS, results=results, cdf_points=5)
        ratio_column = series.headers.index("lat/target")
        ideal_rows = [r for r in series.rows if r[0] == "Ideal"]
        assert ideal_rows[0][ratio_column] == pytest.approx(1.0, rel=0.3)

    def test_fig4_ratio_column(self, results):
        series = fig4_best_effort(ARCHS, LOADS, results=results)
        ratio_column = series.headers.index("BE:BG")
        for row in series.rows:
            assert row[ratio_column] > 0

    def test_penalties_include_all_archs(self):
        local = sweep(
            ("ideal", "simple-2vc", "advanced-2vc", "traditional-2vc"),
            (0.5,),
            topology="tiny",
            seed=2,
            warmup_ns=80 * units.US,
            measure_ns=150 * units.US,
        )
        penalties = order_error_penalties(load=0.5, results=local)
        assert penalties["ideal"] == 1.0
        assert set(penalties) == {
            "ideal",
            "simple-2vc",
            "advanced-2vc",
            "traditional-2vc",
        }


class TestFigureSeriesText:
    def test_text_rendering(self):
        series = FigureSeries(
            figure="Demo",
            headers=["a", "b"],
            rows=[["x", 1.0]],
            cdfs={"x": [(10.0, 0.5), (20.0, 1.0)]},
            notes=["hello"],
        )
        text = series.text()
        assert "Demo" in text
        assert "CDF at full load" in text
        assert "# hello" in text

    def test_text_without_cdfs(self):
        series = FigureSeries(figure="D", headers=["a"], rows=[[1]])
        assert "CDF" not in series.text()
