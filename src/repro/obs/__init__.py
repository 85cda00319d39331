"""Runtime observability: metrics registry, heartbeat telemetry, export.

Off is ``None``: every sink keyword (``trace=``, ``metrics=``, ``tracer=``)
takes the object or ``None``, and there are no null objects or ``enabled``
flags.  A run that asks for nothing pays one ``is not None`` test per
packet-lifecycle point and imports none of this package:

- :mod:`repro.obs.observer` -- the one seam: ``Switch`` and ``Host``
  report each lifecycle point to a single
  :class:`~repro.obs.observer.FabricObserver` (``None`` when nothing is
  on), which fans out to the sinks below.
- :mod:`repro.obs.metrics` -- ``Counter`` / ``Gauge`` / ``Histogram``
  primitives and the :class:`~repro.obs.metrics.MetricsRegistry`.
- :mod:`repro.obs.telemetry` -- :class:`~repro.obs.telemetry.RunTelemetry`,
  the heartbeat: it samples the fabric it is given into its own
  keep-newest row log, plus optional live stderr progress.
- :mod:`repro.obs.snapshot` / :mod:`repro.obs.schema` -- the stable JSON
  snapshot document, pretty-printer, differ, JSONL trace dump, and a
  dependency-free schema validator used by CI.
- :mod:`repro.obs.tracing` / :mod:`repro.obs.blame` -- span-based
  packet-lifecycle tracing (exact integer-ns per-stage decomposition,
  head/tail sampling, Chrome-trace + JSONL export) and the
  ``trace blame`` slack-attribution analyzer.

See docs/ARCHITECTURE.md section 8 for the design rationale, the metric
naming scheme (``<layer>.<component>.<name>_<unit>``), and section 8.1
for the span model.
"""

from repro.obs.blame import BlameReport, analyze_blame
from repro.obs.metrics import (
    Counter,
    DEPTH_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    SLACK_BUCKETS_NS,
    WAIT_BUCKETS_NS,
    class_counter,
)
from repro.obs.observer import FabricObserver
from repro.obs.schema import validate
from repro.obs.snapshot import (
    diff_snapshots,
    dump_snapshot,
    format_diff,
    format_snapshot,
    load_snapshot,
    run_snapshot,
    write_trace_jsonl,
)
from repro.obs.telemetry import RunTelemetry, sync_component_totals
from repro.obs.tracing import (
    PacketTracer,
    Span,
    SpanTrace,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "BlameReport",
    "Counter",
    "DEPTH_BUCKETS",
    "FabricObserver",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "PacketTracer",
    "RunTelemetry",
    "SLACK_BUCKETS_NS",
    "Span",
    "SpanTrace",
    "WAIT_BUCKETS_NS",
    "analyze_blame",
    "class_counter",
    "diff_snapshots",
    "dump_snapshot",
    "format_diff",
    "format_snapshot",
    "load_snapshot",
    "read_spans_jsonl",
    "run_snapshot",
    "sync_component_totals",
    "validate",
    "write_chrome_trace",
    "write_spans_jsonl",
]
