"""One experiment run's complete parameterization."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.architectures import ARCHITECTURES
from repro.network.fabric import FabricParams
from repro.sim import units
from repro.traffic.mix import CLASS_NAMES, TrafficMixConfig

__all__ = ["ExperimentConfig", "scaled_video_mix"]


def scaled_video_mix(load: float, time_scale: float = 0.1, **overrides) -> TrafficMixConfig:
    """A Table 1 mix with video time compressed by ``time_scale``.

    The paper's video runs at 25 fps with a 10 ms frame-latency target;
    statistically meaningful frame statistics therefore need hundreds of
    simulated milliseconds.  Compressing *time* (frame period and target
    latency down, per-stream rate up by the same factor) keeps frame
    sizes, packet counts per frame, and every deadline *relationship*
    identical while shrinking the needed simulation window
    (``tests/experiments/test_config.py::TestScaledVideoMix`` checks the
    relations; no test compares a scaled run with an unscaled one).
    """
    if not 0 < time_scale <= 1:
        raise ValueError(f"time_scale must be in (0, 1], got {time_scale}")
    return TrafficMixConfig(
        load=load,
        video_fps=25.0 / time_scale,
        video_target_latency_ns=units.ms(10 * time_scale),
        video_stream_rate_bytes_per_ns=(1.5e6 / units.S) / time_scale,
        **overrides,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulation run depends on.

    ``mix`` defaults to a plain Table 1 mix at ``load``; pass an explicit
    :class:`TrafficMixConfig` (e.g. from :func:`scaled_video_mix`) to
    override workload details -- its own ``load`` then wins.
    """

    architecture: str = "advanced-2vc"
    load: float = 1.0
    seed: int = 1
    topology: str = "small"
    warmup_ns: int = units.us(200)
    measure_ns: int = units.ms(1)
    params: FabricParams = field(default_factory=FabricParams)
    mix: Optional[TrafficMixConfig] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            known = ", ".join(sorted(ARCHITECTURES))
            raise ValueError(
                f"unknown architecture {self.architecture!r}; known: {known}"
            )
        if self.measure_ns <= 0:
            raise ValueError(f"measurement window must be positive, got {self.measure_ns}")
        if self.warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup_ns}")
        mix, n_vcs = self.mix_config, self.params.n_vcs
        for tclass in CLASS_NAMES:
            vc = mix.vc(tclass)
            if vc >= n_vcs and mix.class_rate(tclass, 1.0) > 0:
                layout = "vc_map" if tclass in (mix.vc_map or {}) else "the default layout"
                raise ValueError(
                    f"{layout} puts class {tclass!r} on VC {vc}, "
                    f"but the fabric has {n_vcs} VCs (params.n_vcs)"
                )

    @property
    def mix_config(self) -> TrafficMixConfig:
        if self.mix is not None:
            return self.mix
        return TrafficMixConfig(load=self.load)

    @property
    def end_ns(self) -> int:
        return self.warmup_ns + self.measure_ns

    def with_(self, **changes) -> "ExperimentConfig":
        """Functional update (sweeps iterate architectures/loads this way)."""
        return replace(self, **changes)
