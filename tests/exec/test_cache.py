"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.exec.cache import ResultCache
from repro.exec.digest import config_digest
from repro.exec.summary import execute_config
from repro.experiments.config import ExperimentConfig
from repro.sim import units


def quick_config(**overrides):
    defaults = dict(
        architecture="ideal",
        load=0.4,
        topology="tiny",
        warmup_ns=40 * units.US,
        measure_ns=100 * units.US,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def entry():
    config = quick_config()
    return config_digest(config), execute_config(config)


class TestMemoryCache:
    def test_miss_then_hit(self, entry):
        digest, summary = entry
        cache = ResultCache()
        assert cache.get(digest) is None
        cache.put(digest, summary)
        assert cache.get(digest) is summary
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_no_disk_side_effects(self, entry, tmp_path):
        digest, summary = entry
        ResultCache().put(digest, summary)
        assert list(tmp_path.iterdir()) == []


class TestDiskCache:
    def test_round_trip_across_instances(self, entry, tmp_path):
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        assert (tmp_path / f"{digest}.json").is_file()
        cold = ResultCache(tmp_path)
        loaded = cold.get(digest)
        assert loaded == summary
        assert cold.stats() == {"hits": 1, "misses": 0}

    def test_entry_is_valid_json_with_digest(self, entry, tmp_path):
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        payload = json.loads((tmp_path / f"{digest}.json").read_text())
        assert payload["digest"] == digest
        assert payload["summary"]["config"]["architecture"] == "ideal"

    def test_corrupt_entry_degrades_to_miss(self, entry, tmp_path):
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        (tmp_path / f"{digest}.json").write_text("{not json", encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.get(digest) is None
        assert cache.stats() == {"hits": 0, "misses": 1}

    @pytest.mark.parametrize(
        "corrupt",
        [[], 5, None, "summary", {"classes": []}],
        ids=["list", "int", "null", "string", "classes-list"],
    )
    def test_malformed_summary_degrades_to_miss(self, entry, tmp_path, corrupt):
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        path = tmp_path / f"{digest}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(corrupt, dict):
            payload["summary"].update(corrupt)
        else:
            payload["summary"] = corrupt
        path.write_text(json.dumps(payload), encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.get(digest) is None
        assert cache.stats() == {"hits": 0, "misses": 1}

    def test_renamed_entry_rejected(self, entry, tmp_path):
        # a file whose payload digest disagrees with its name is foreign:
        # never trust the name alone
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        other = "f" * 64
        (tmp_path / f"{digest}.json").rename(tmp_path / f"{other}.json")
        assert ResultCache(tmp_path).get(other) is None

    def test_missing_dir_created_lazily(self, entry, tmp_path):
        digest, summary = entry
        nested = tmp_path / "a" / "b"
        cache = ResultCache(nested)
        assert cache.get(digest) is None  # no dir yet: plain miss
        cache.put(digest, summary)
        assert (nested / f"{digest}.json").is_file()

    def test_no_tmp_droppings(self, entry, tmp_path):
        digest, summary = entry
        ResultCache(tmp_path).put(digest, summary)
        assert [p.name for p in tmp_path.iterdir()] == [f"{digest}.json"]
