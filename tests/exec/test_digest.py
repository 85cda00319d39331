"""Tests for canonical config serialization and content-addressed keys."""

import json
import os
import subprocess
import sys

from repro.exec.cache import ResultCache
from repro.exec.digest import canonical_config_dict, config_digest, config_from_dict
from repro.exec.summary import execute_config
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.network.fabric import FabricParams
from repro.sim import units


def quick_config(**overrides):
    defaults = dict(
        architecture="advanced-2vc",
        load=0.5,
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=120 * units.US,
        mix=scaled_video_mix(0.5, time_scale=0.02),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCanonicalDict:
    def test_round_trip_equality(self):
        config = quick_config()
        assert config_from_dict(canonical_config_dict(config)) == config

    def test_round_trip_through_json(self):
        config = quick_config(seed=9)
        doc = json.loads(json.dumps(canonical_config_dict(config)))
        assert config_from_dict(doc) == config

    def test_round_trip_without_mix(self):
        config = quick_config(mix=None)
        assert config_from_dict(canonical_config_dict(config)) == config

    def test_round_trip_with_a_mapping_field(self, tmp_path):
        """The Section 6 counterfactual: ``vc_map`` is the one Mapping a
        config carries, next to ``n_vcs=4`` in the nested params -- through
        the canonical dict and through a cache entry on disk."""
        vc_map = {"control": 0, "multimedia": 1, "best-effort": 2, "background": 3}
        config = quick_config(
            architecture="traditional-2vc",
            params=FabricParams(n_vcs=4),
            mix=scaled_video_mix(0.5, 0.02, vc_map=vc_map),
        )
        assert config_from_dict(canonical_config_dict(config)) == config
        digest = config_digest(config)
        assert digest != config_digest(quick_config(architecture="traditional-2vc"))
        summary = execute_config(config)
        ResultCache(tmp_path).put(digest, summary)
        replayed = ResultCache(tmp_path).get(digest)
        assert replayed == summary
        assert replayed.config.mix.vc_map == vc_map and replayed.config.params.n_vcs == 4

    def test_json_safe(self):
        # must serialize without a custom encoder (tuples already lists)
        blob = json.dumps(canonical_config_dict(quick_config()), sort_keys=True)
        assert '"architecture"' in blob


class TestConfigDigest:
    def test_equal_configs_equal_digests(self):
        assert config_digest(quick_config()) == config_digest(quick_config())

    def test_sha256_hex_shape(self):
        digest = config_digest(quick_config())
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_any_field_change_changes_digest(self):
        base = config_digest(quick_config())
        assert config_digest(quick_config(seed=2)) != base
        assert config_digest(quick_config(load=0.6)) != base
        assert config_digest(quick_config(architecture="ideal")) != base
        assert config_digest(quick_config(measure_ns=121 * units.US)) != base

    def test_extras_fold_into_digest(self):
        config = quick_config()
        assert config_digest(config) != config_digest(config, cdf_samples=64)
        assert config_digest(config, cdf_samples=64) != config_digest(
            config, cdf_samples=128
        )
        assert config_digest(config, cdf_samples=64) == config_digest(
            config, cdf_samples=64
        )

    def test_stable_across_processes_and_hash_seeds(self):
        """The satellite guarantee: sha256 over canonical JSON, never
        ``hash()``, so fresh interpreters with different PYTHONHASHSEED
        values must reproduce the digest exactly."""
        local = config_digest(quick_config(seed=5))
        script = (
            "from repro.exec.digest import config_digest\n"
            "from repro.experiments.config import ExperimentConfig, scaled_video_mix\n"
            "from repro.sim import units\n"
            "config = ExperimentConfig(architecture='advanced-2vc', load=0.5,\n"
            "    seed=5, topology='tiny', warmup_ns=50 * units.US,\n"
            "    measure_ns=120 * units.US,\n"
            "    mix=scaled_video_mix(0.5, time_scale=0.02))\n"
            "print(config_digest(config))\n"
        )
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.strip() == local, f"PYTHONHASHSEED={hash_seed}"
