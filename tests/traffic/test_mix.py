"""Tests for the Table 1 workload composition."""

import pytest

from repro.sim.rng import RandomStreams
from repro.traffic.mix import CLASS_NAMES, TrafficMixConfig, build_mix


class TestConfig:
    def test_defaults_follow_table1(self):
        config = TrafficMixConfig()
        assert config.share_control == 0.25
        assert config.share_multimedia == 0.25
        assert config.share_best_effort == 0.25
        assert config.share_background == 0.25
        assert config.control_size_range == (128, 2048)
        assert config.burst_size_range == (128, 102_400)
        assert config.video_target_latency_ns == 10_000_000  # 10 ms

    def test_class_rate(self):
        config = TrafficMixConfig(load=0.8)
        assert config.class_rate("control", 1.0) == pytest.approx(0.2)

    def test_shares_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            TrafficMixConfig(share_control=0.5, share_multimedia=0.6)

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            TrafficMixConfig(load=0.0)
        with pytest.raises(ValueError):
            TrafficMixConfig(load=2.5)

    def test_vc_map_names_known_classes(self):
        # A misspelt class used to be ignored: its traffic ran on the
        # default VC.
        with pytest.raises(ValueError, match=r"unknown class 'contrl' \(VC 0\)"):
            TrafficMixConfig(vc_map={"contrl": 0})

    @pytest.mark.parametrize("vc", [-1, 1.0, True, "1"])
    def test_vc_map_vcs_are_channel_indices(self, vc):
        with pytest.raises(ValueError, match=f"class 'background' .* got {vc!r}"):
            TrafficMixConfig(vc_map={"control": 0, "background": vc})
        TrafficMixConfig(vc_map=dict.fromkeys(CLASS_NAMES, 3))


class TestBuildMix:
    def test_every_host_gets_all_four_classes(self, make_fabric, streams):
        fabric = make_fabric()
        mix = build_mix(fabric, streams, TrafficMixConfig(load=0.5))
        n = fabric.topology.n_hosts
        assert len(mix.sources["control"]) == n
        assert len(mix.sources["best-effort"]) == n
        assert len(mix.sources["background"]) == n
        assert len(mix.sources["multimedia"]) >= n  # >= 1 stream per host

    def test_video_reservations_all_admitted(self, make_fabric, streams):
        """Balanced destination rotation keeps per-downlink video at its
        share, so admission never rejects the standard mix at load 1.0."""
        fabric = make_fabric()
        mix = build_mix(fabric, streams, TrafficMixConfig(load=1.0))
        assert fabric.admission.reservation_count == len(mix.sources["multimedia"])

    def test_video_destinations_balanced(self, make_fabric, streams):
        fabric = make_fabric()
        mix = build_mix(fabric, streams, TrafficMixConfig(load=1.0))
        received = {}
        for stream in mix.sources["multimedia"]:
            received[stream.dst] = received.get(stream.dst, 0) + 1
        counts = set(received.values())
        assert len(counts) == 1, f"unbalanced video destinations: {received}"

    def test_zero_share_skips_class(self, make_fabric, streams):
        fabric = make_fabric()
        mix = build_mix(
            fabric,
            streams,
            TrafficMixConfig(load=0.5, share_multimedia=0.0, share_background=0.0),
        )
        assert mix.sources["multimedia"] == []
        assert mix.sources["background"] == []
        assert len(mix.sources["control"]) == 16

    def test_best_effort_weights(self, make_fabric, streams):
        fabric = make_fabric()
        mix = build_mix(
            fabric,
            streams,
            TrafficMixConfig(load=0.5, weight_best_effort=2.0, weight_background=1.0),
        )
        be = mix.sources["best-effort"][0]
        bg = mix.sources["background"][0]
        assert be.deadline_bw == pytest.approx(2 * bg.deadline_bw)

    def test_offered_load_calibration(self, make_fabric, streams):
        """The realized offered load tracks the configured load."""
        fabric = make_fabric()
        config = TrafficMixConfig(
            load=0.5,
            # Compress video so the measurement window sees steady state.
            video_fps=2500.0,
            video_target_latency_ns=100_000,
            video_stream_rate_bytes_per_ns=0.15,
        )
        mix = build_mix(fabric, streams, config)
        mix.start()
        fabric.run(until=4_000_000)
        horizon = 4_000_000 * fabric.topology.n_hosts
        for tclass in CLASS_NAMES:
            offered = mix.offered_bytes(tclass) / horizon
            assert offered == pytest.approx(0.125, rel=0.25), tclass

    def test_start_stop(self, make_fabric, streams):
        fabric = make_fabric()
        mix = build_mix(fabric, streams, TrafficMixConfig(load=0.3))
        mix.start()
        fabric.run(until=200_000)
        mix.stop()
        generated = sum(s.messages_generated for s in mix.all_sources())
        fabric.run(until=2_000_000)
        assert sum(s.messages_generated for s in mix.all_sources()) == generated

    def test_needs_two_hosts(self, streams):
        from repro.core.architectures import ADVANCED_2VC
        from repro.network.fabric import Fabric
        from repro.network.topology import build_folded_shuffle_min

        topo = build_folded_shuffle_min(1, 1, 1)
        fabric = Fabric(topo, ADVANCED_2VC)
        with pytest.raises(ValueError):
            build_mix(fabric, streams, TrafficMixConfig(load=0.5))

    def test_determinism(self, make_fabric):
        totals = []
        for _ in range(2):
            fabric = make_fabric()
            mix = build_mix(fabric, RandomStreams(777), TrafficMixConfig(load=0.4))
            mix.start()
            fabric.run(until=500_000)
            totals.append(
                tuple(mix.offered_bytes(tclass) for tclass in CLASS_NAMES)
            )
        assert totals[0] == totals[1]
