"""Tests for multi-seed replication and result export."""

import json

import pytest

from repro.exec.summary import execute_config
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.export import (
    figure_to_csv,
    figure_to_json,
    result_to_json,
    write_figure,
)
from repro.experiments.figures import FigureSeries
from repro.experiments.replication import MetricSummary, replicate
from repro.experiments.runner import run_experiment
from repro.sim import units


def quick_config(**overrides):
    defaults = dict(
        architecture="advanced-2vc",
        load=0.5,
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
        mix=scaled_video_mix(0.5, time_scale=0.02),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMetricSummary:
    def test_mean_std(self):
        summary = MetricSummary("x", (1.0, 2.0, 3.0))
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(1.0)

    def test_ci_contains_mean(self):
        summary = MetricSummary("x", (10.0, 12.0, 11.0, 9.0))
        lo, hi = summary.ci95
        assert lo < summary.mean < hi

    def test_ci_is_a_t_interval(self):
        # n = 3: 2.0 +- 4.303 / sqrt(3); the z-interval said +- 1.132.
        lo, hi = MetricSummary("x", (1.0, 2.0, 3.0)).ci95
        assert (lo, hi) == pytest.approx((2.0 - 2.484, 2.0 + 2.484), abs=5e-4)
        # Past the table the normal quantile takes over.
        many = MetricSummary("x", tuple(float(i % 2) for i in range(40)))
        lo, hi = many.ci95
        assert hi - many.mean == pytest.approx(1.959964 * many.std / 40**0.5)

    def test_t_table_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")  # a dev dependency

        from repro.experiments.replication import _T95, _Z95

        assert len(_T95) == 30
        for df, quantile in enumerate(_T95, start=1):
            assert quantile == pytest.approx(stats.t.ppf(0.975, df), abs=5e-5)
        assert _Z95 < _T95[-1] < _T95[0]

    def test_single_sample_ci_degenerate(self):
        summary = MetricSummary("x", (5.0,))
        assert summary.ci95 == (5.0, 5.0)

    def test_overlap(self):
        a = MetricSummary("a", (10.0, 11.0, 10.5))
        b = MetricSummary("b", (10.6, 11.4, 11.0))
        c = MetricSummary("c", (50.0, 51.0, 50.5))
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestReplicate:
    @pytest.fixture(scope="class")
    def replication(self):
        return replicate(quick_config(), seeds=(1, 2, 3))

    def test_one_result_per_seed(self, replication):
        assert replication.seeds == [1, 2, 3]

    def test_metric_extraction(self, replication):
        summary = replication.mean_latency("control")
        assert summary.n == 3
        assert summary.mean > 0
        assert all(v > 0 for v in summary.values)

    def test_seeds_actually_vary(self, replication):
        summary = replication.mean_latency("control")
        assert summary.std > 0

    def test_throughput_metric(self, replication):
        summary = replication.throughput("control")
        # 16 hosts x 0.5 load x 0.25 share, modest CI
        assert summary.mean == pytest.approx(2.0, rel=0.3)

    def test_run_one_respects_seed(self):
        config = quick_config()
        a = run_experiment(config.with_(seed=7))
        b = run_experiment(config.with_(seed=7))
        assert (
            a.collector.get("control").packet_latency.mean
            == b.collector.get("control").packet_latency.mean
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(quick_config(), seeds=())
        with pytest.raises(ValueError):
            replicate(quick_config(), seeds=(1, 1))


class TestExport:
    @pytest.fixture(scope="class")
    def series(self):
        return FigureSeries(
            figure="Fig X",
            headers=["arch", "load", "lat"],
            rows=[["ideal", 0.5, 1.25], ["simple", 0.5, 1.5]],
            cdfs={"ideal": [(1.0, 0.5), (2.0, 1.0)]},
            notes=["a note"],
        )

    def test_csv(self, series):
        text = figure_to_csv(series)
        lines = text.strip().splitlines()
        assert lines[0] == "arch,load,lat"
        assert lines[1] == "ideal,0.5,1.25"

    def test_json(self, series):
        doc = json.loads(figure_to_json(series))
        assert doc["figure"] == "Fig X"
        assert doc["rows"][1][0] == "simple"
        assert doc["cdfs"]["ideal"][0] == {"x": 1.0, "p": 0.5}
        assert doc["notes"] == ["a note"]

    def test_write_infers_format(self, series, tmp_path):
        csv_path = write_figure(series, tmp_path / "fig.csv")
        json_path = write_figure(series, tmp_path / "fig.json")
        assert csv_path.read_text().startswith("arch,load,lat")
        assert json.loads(json_path.read_text())["figure"] == "Fig X"

    def test_write_rejects_unknown_format(self, series, tmp_path):
        with pytest.raises(ValueError):
            write_figure(series, tmp_path / "fig.xlsx")

    def test_result_to_json(self):
        doc = json.loads(result_to_json(execute_config(quick_config(seed=1))))
        assert doc["architecture"] == "advanced-2vc"
        assert doc["load"] == 0.5
        assert "control" in doc["classes"]
        control = doc["classes"]["control"]
        assert control["packets"] > 0
        assert control["message_latency_ns"]["p99"] >= control["message_latency_ns"]["p50"]
