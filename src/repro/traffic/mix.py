"""The Table 1 workload: four classes, 25% of the offered load each.

:func:`build_mix` attaches to *every* host of a fabric:

- a :class:`~repro.traffic.control.ControlSource` at
  ``load * share_control`` of the link rate;
- enough :class:`~repro.traffic.multimedia.VideoStream` instances (to
  balanced destinations) to fill ``load * share_multimedia``, each
  admitted with its average rate reserved;
- one :class:`~repro.traffic.selfsimilar.SelfSimilarSource` each for the
  *best-effort* and *background* classes, at ``load * share`` apiece.

The two best-effort classes are identical except for the deadline-
generation weight of their aggregated flow records (default 2:1), which
is what lets the EDF architectures differentiate them in Figure 4.

Video destinations use a balanced rotation (stream ``s`` of host ``h``
targets ``(h + 1 + s) mod n``) so every host *receives* the same
multimedia load and per-host reservations always fit; control and
best-effort destinations are uniform random per message, as in the NPF
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.constants import default_vc
from repro.network.fabric import Fabric
from repro.sim import units
from repro.sim.rng import RandomStreams
from repro.traffic.base import TrafficSource
from repro.traffic.control import ControlSource
from repro.traffic.multimedia import VideoStream
from repro.traffic.selfsimilar import SelfSimilarSource

__all__ = ["TrafficMix", "TrafficMixConfig", "build_mix", "CLASS_NAMES"]

#: The four traffic classes of Table 1, in presentation order.
CLASS_NAMES = ("control", "multimedia", "best-effort", "background")


@dataclass(frozen=True)
class TrafficMixConfig:
    """Knobs of the Table 1 workload.  Defaults follow the paper."""

    #: Offered load per host as a fraction of the link bandwidth.
    load: float = 1.0
    #: Bandwidth share of each class (Table 1: 25% each).
    share_control: float = 0.25
    share_multimedia: float = 0.25
    share_best_effort: float = 0.25
    share_background: float = 0.25
    #: Control message sizes (Table 1: 128 B - 2 KB).
    control_size_range: tuple[int, int] = (128, 2048)
    #: Nominal per-stream video rate.  The paper quotes "3 Mbyte/s MPEG-4
    #: traces" but its own Section 3.1 example uses 400 KB/s streams with
    #: frames of 1-120 KB; we default between the two (1.5 MB/s, i.e. a
    #: 60 KB mean frame at 25 fps) so frame sizes actually *span* the
    #: paper's [1 KB, 120 KB] range instead of pinning at the cap.
    video_stream_rate_bytes_per_ns: float = 1.5e6 / units.S
    video_fps: float = 25.0
    #: Desired per-frame latency (Section 3.1: 10 ms).
    video_target_latency_ns: int = units.ms(10)
    video_smoothing: bool = True
    video_gop_pattern: str = "IBBPBBPBBPBB"
    #: Deadline-bandwidth weights of the two best-effort classes; their
    #: ratio is the throughput ratio EDF enforces under saturation.
    weight_best_effort: float = 2.0
    weight_background: float = 1.0
    #: Self-similar burst parameters (Pareto sizes over 128 B - 100 KB).
    burst_size_alpha: float = 1.3
    burst_size_range: tuple[int, int] = (128, 102_400)
    #: Read by nothing: bursts are followed by compensating ``size/rate``
    #: gaps.  It stays a field because the mix config is part of
    #: ``canonical_config_dict``, so of every ``sim_digest``, summary golden
    #: and cache key; it can go with a digest that hashes only what a run
    #: reads (ROADMAP item 6).
    burst_gap_alpha: float = 1.9
    #: Optional class -> VC assignment.  An unmapped class keeps the
    #: paper's two-VC layout (control+multimedia on VC0, best-effort
    #: classes on VC1; see :meth:`vc`).  The
    #: Section 6 counterfactual maps each class to its own priority VC on
    #: a fabric built with ``FabricParams(n_vcs=4)``.
    vc_map: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if not 0 < self.load <= 2.0:
            raise ValueError(f"load should be a link fraction in (0, 2], got {self.load}")
        total = (
            self.share_control
            + self.share_multimedia
            + self.share_best_effort
            + self.share_background
        )
        if total > 1.0 + 1e-9:
            raise ValueError(f"class shares sum to {total}, must be <= 1")
        if self.video_target_latency_ns < 1:
            raise ValueError(
                f"video_target_latency_ns must be >= 1, got {self.video_target_latency_ns} "
                "(a time_scale below 5e-8 rounds the 10 ms frame target to 0 ns)"
            )
        # The fabric's VC count bounds the VCs from above
        # (ExperimentConfig); here only the classes and the indices.
        for tclass, vc in (self.vc_map or {}).items():
            if tclass not in CLASS_NAMES:
                raise ValueError(
                    f"vc_map: unknown class {tclass!r} (VC {vc!r}); known: {', '.join(CLASS_NAMES)}"
                )
            if vc.__class__ is not int or vc < 0:
                raise ValueError(
                    f"vc_map: class {tclass!r} needs a non-negative int VC, got {vc!r}"
                )

    def vc(self, tclass: str) -> int:
        """The VC ``tclass`` travels on: its ``vc_map`` entry, else the
        paper's two-VC layout."""
        return (self.vc_map or {}).get(tclass, default_vc(tclass))

    def class_rate(self, tclass: str, link_bytes_per_ns: float) -> float:
        """Offered rate of one class at one host, in bytes/ns."""
        share = {
            "control": self.share_control,
            "multimedia": self.share_multimedia,
            "best-effort": self.share_best_effort,
            "background": self.share_background,
        }[tclass]
        return self.load * share * link_bytes_per_ns


@dataclass
class TrafficMix:
    """All sources attached to a fabric, grouped by class."""

    config: TrafficMixConfig
    sources: Dict[str, List[TrafficSource]] = field(default_factory=dict)

    def all_sources(self) -> List[TrafficSource]:
        return [s for group in self.sources.values() for s in group]

    def start(self) -> None:
        for source in self.all_sources():
            source.start()

    def stop(self) -> None:
        for source in self.all_sources():
            source.stop()

    def offered_bytes(self, tclass: str) -> int:
        return sum(s.bytes_generated for s in self.sources.get(tclass, []))


def build_mix(
    fabric: Fabric,
    streams: RandomStreams,
    config: TrafficMixConfig = TrafficMixConfig(),
) -> TrafficMix:
    """Attach the full Table 1 workload to every host of ``fabric``."""
    link_bw = fabric.params.bytes_per_ns
    n_hosts = fabric.topology.n_hosts
    if n_hosts < 2:
        raise ValueError("the mix needs at least two hosts")
    mix = TrafficMix(config=config)
    sources = mix.sources
    for name in CLASS_NAMES:
        sources[name] = []

    # Deadline-generation bandwidths of the aggregated best-effort records:
    # the weights split the classes' *aggregate offered share* of the link.
    # This matters: a class offered more than its deadline bandwidth has a
    # virtual clock that runs ahead of real time, pushing its deadlines ever
    # further into the future -- that is precisely how EDF throttles it in
    # favour of the heavier class under saturation (Figure 4).  Normalizing
    # to the full link rate instead would leave both clocks anchored at
    # "now" and the weights would never bite.
    weight_total = config.weight_best_effort + config.weight_background
    be_aggregate = config.class_rate("best-effort", link_bw) + config.class_rate(
        "background", link_bw
    )
    deadline_bw = {
        "best-effort": config.weight_best_effort / weight_total * be_aggregate,
        "background": config.weight_background / weight_total * be_aggregate,
    }

    for host in range(n_hosts):
        control_rate = config.class_rate("control", link_bw)
        if control_rate > 0:
            sources["control"].append(
                ControlSource(
                    fabric,
                    host,
                    control_rate,
                    streams.stream(f"control.h{host}"),
                    size_range=config.control_size_range,
                    vc=config.vc("control"),
                )
            )

        video_rate = config.class_rate("multimedia", link_bw)
        if video_rate > 0:
            n_streams = max(1, round(video_rate / config.video_stream_rate_bytes_per_ns))
            per_stream = video_rate / n_streams
            for s in range(n_streams):
                dst = (host + 1 + s) % n_hosts
                if dst == host:  # only when n_streams >= n_hosts
                    dst = (dst + 1) % n_hosts
                sources["multimedia"].append(
                    VideoStream(
                        fabric,
                        host,
                        dst,
                        streams.stream(f"video.h{host}.s{s}"),
                        rate_bytes_per_ns=per_stream,
                        fps=config.video_fps,
                        target_latency_ns=config.video_target_latency_ns,
                        smoothing=config.video_smoothing,
                        gop_pattern=config.video_gop_pattern,
                        vc=config.vc("multimedia"),
                    )
                )

        for tclass in ("best-effort", "background"):
            rate = config.class_rate(tclass, link_bw)
            if rate > 0:
                sources[tclass].append(
                    SelfSimilarSource(
                        fabric,
                        host,
                        rate,
                        streams.stream(f"{tclass}.h{host}"),
                        tclass=tclass,
                        deadline_bw_bytes_per_ns=deadline_bw[tclass],
                        size_alpha=config.burst_size_alpha,
                        size_range=config.burst_size_range,
                        vc=config.vc(tclass),
                    )
                )
    return mix
