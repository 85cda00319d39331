"""Metrics substrate: the three QoS indices of Section 5.

The paper evaluates *throughput*, *latency*, and *jitter* (packet loss is
structurally zero under credit flow control -- a property the integration
tests assert rather than measure).  Latency for multimedia is per video
*frame* (full transfer), not per packet; Figure 2/3 also show the
cumulative distribution function of latency at saturation.

- :class:`~repro.stats.running.RunningStats` -- streaming mean/std/extrema
  (Welford), O(1) memory.
- :class:`~repro.stats.reservoir.Reservoir` -- uniform sample of a stream,
  for CDFs/percentiles without storing every packet.
- :class:`~repro.stats.cdf.EmpiricalCDF` -- quantiles and P(X <= x).
- :class:`~repro.stats.collectors.MetricsCollector` -- subscribes to a
  fabric's deliveries; tracks per-class packet latency, frame (message)
  latency, inter-frame jitter, and delivered throughput, with a warm-up
  cutoff.
- :mod:`~repro.stats.report` -- fixed-width text tables in the shape of
  the paper's figures.
"""

from repro.stats.cdf import EmpiricalCDF
from repro.stats.collectors import ClassStats, MetricsCollector
from repro.stats.report import format_row, format_table
from repro.stats.reservoir import Reservoir
from repro.stats.running import RunningStats

__all__ = [
    "ClassStats",
    "EmpiricalCDF",
    "MetricsCollector",
    "Reservoir",
    "RunningStats",
    "format_row",
    "format_table",
]
