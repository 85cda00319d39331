"""Workload substrate: the traffic of Table 1.

Following the Network Processing Forum switch-fabric benchmark the paper
cites, each host injects four classes, 25% of the offered load each:

- **Control** (:mod:`~repro.traffic.control`): small messages
  (128 B - 2 KB), latency critical, no admission, full-link-bandwidth
  deadlines.
- **Multimedia** (:mod:`~repro.traffic.multimedia`): MPEG-4-like video
  streams -- one frame per 40 ms, GoP-structured frame sizes clipped to
  [1 KB, 120 KB], frame-based deadlines targeting 10 ms, eligible-time
  smoothing.
- **Best-effort** and **Background**
  (:mod:`~repro.traffic.selfsimilar`): self-similar bursts (Pareto
  message sizes in [128 B, 100 KB], heavy-tailed inter-burst gaps) on the
  unregulated VC, distinguished only by the deadline-generation weight of
  their aggregated flows.

:mod:`~repro.traffic.mix` composes all four per host at a given load
fraction, :mod:`~repro.traffic.distributions` holds the bounded-Pareto/GoP
samplers, and :mod:`~repro.traffic.trace` records and replays traffic.
The constant-bit-rate and generator-scripted sources only tests drive
live under ``tests/traffic/``.
"""

from repro.traffic.base import TrafficSource
from repro.traffic.control import ControlSource
from repro.traffic.distributions import BoundedPareto, GopFrameSizes
from repro.traffic.multimedia import VideoStream
from repro.traffic.selfsimilar import SelfSimilarSource
from repro.traffic.mix import TrafficMix, TrafficMixConfig, build_mix
from repro.traffic.trace import (
    FrameSizeTrace,
    TraceRecorder,
    TraceReplaySource,
    load_trace,
    replay_all,
    video_stream_from_trace,
)

__all__ = [
    "BoundedPareto",
    "ControlSource",
    "FrameSizeTrace",
    "GopFrameSizes",
    "SelfSimilarSource",
    "TraceRecorder",
    "TraceReplaySource",
    "TrafficMix",
    "TrafficMixConfig",
    "TrafficSource",
    "VideoStream",
    "build_mix",
    "load_trace",
    "replay_all",
    "video_stream_from_trace",
]
