"""Tests for experiment configuration."""

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.presets import TOPOLOGY_PRESETS, make_topology
from repro.network.fabric import FabricParams
from repro.sim import units


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.mix_config.load == config.load
        assert config.end_ns == config.warmup_ns + config.measure_ns

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="ideal"):
            ExperimentConfig(architecture="nope")

    def test_explicit_mix_wins(self):
        mix = scaled_video_mix(0.5, 0.1)
        config = ExperimentConfig(load=0.9, mix=mix)
        assert config.mix_config.load == 0.5

    def test_with_updates(self):
        config = ExperimentConfig(load=0.5)
        updated = config.with_(load=0.9, architecture="ideal")
        assert updated.load == 0.9
        assert updated.architecture == "ideal"
        assert config.load == 0.5  # original untouched

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            ExperimentConfig(measure_ns=0)
        with pytest.raises(ValueError):
            ExperimentConfig(warmup_ns=-1)

    def test_vc_map_must_fit_the_fabric(self):
        # A 4-VC map on the default 2-VC fabric used to build and then
        # fail mid-run, at the first best-effort flow opened on VC 2.
        vc_map = {"control": 0, "multimedia": 1, "best-effort": 2, "background": 3}
        mix = scaled_video_mix(0.5, 0.02, vc_map=vc_map)
        with pytest.raises(ValueError, match="'best-effort' on VC 2, but the fabric has 2 VCs"):
            ExperimentConfig(topology="tiny", mix=mix)
        four = ExperimentConfig(topology="tiny", params=FabricParams(n_vcs=4), mix=mix)
        assert four.mix_config.vc_map == vc_map


class TestScaledVideoMix:
    def test_scale_relations(self):
        mix = scaled_video_mix(1.0, time_scale=0.1)
        # Period shrinks 10x, per-stream rate grows 10x: frame sizes and
        # packet counts per frame are unchanged.
        assert mix.video_fps == 250.0
        assert mix.video_target_latency_ns == 1 * units.MS
        assert mix.video_stream_rate_bytes_per_ns == pytest.approx(0.015)
        frame_bytes = mix.video_stream_rate_bytes_per_ns * (units.S / mix.video_fps)
        unscaled = scaled_video_mix(1.0, time_scale=1.0)
        unscaled_frame = (
            unscaled.video_stream_rate_bytes_per_ns * (units.S / unscaled.video_fps)
        )
        assert frame_bytes == pytest.approx(unscaled_frame)

    def test_identity_scale(self):
        mix = scaled_video_mix(0.7, time_scale=1.0)
        assert mix.video_fps == 25.0
        assert mix.video_target_latency_ns == 10 * units.MS

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            scaled_video_mix(1.0, time_scale=0.0)
        with pytest.raises(ValueError):
            scaled_video_mix(1.0, time_scale=2.0)


class TestPresets:
    def test_all_presets_build_and_validate(self):
        for name in TOPOLOGY_PRESETS:
            topo = make_topology(name)
            topo.validate()

    def test_paper_preset_is_the_paper_network(self):
        topo = make_topology("paper")
        assert topo.n_hosts == 128
        assert all(topo.radix(sw) == 16 for sw in topo.switch_ids)

    def test_full_bisection_everywhere(self):
        """No preset introduces oversubscription the paper lacks."""
        for name, (leaves, hosts, spines) in TOPOLOGY_PRESETS.items():
            assert spines >= hosts, f"{name} is oversubscribed"

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="paper"):
            make_topology("gigantic")
