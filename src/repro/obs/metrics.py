"""Hot-path-safe metrics primitives and the run-wide registry.

Three instrument kinds, mirroring the classic time-series taxonomy:

- :class:`Counter` -- monotonically increasing event count (enqueues,
  deadline misses, take-over hits).  ``inc`` rejects negative deltas:
  a counter that can go down is a :class:`Gauge` in disguise and would
  silently break rate computations over the heartbeat time series.
- :class:`Gauge` -- a sampled level (heap depth, queue occupancy, link
  utilization).  Set, never accumulated.
- :class:`Histogram` -- fixed integer bucket bounds chosen at creation
  (deadline slack, queue depth, arbitration wait).  Observation is one
  ``bisect`` on a small tuple -- no allocation, no resizing -- which is
  what makes it safe to call per forwarded packet.

There is no disabled registry: a run without metrics passes ``None``
where a :class:`MetricsRegistry` would go.  The network model never sees
a registry either way: :class:`repro.obs.observer.FabricObserver` mints
and feeds the per-packet instruments, and is neither built nor imported
for a run that passes no sink.

Metric names follow ``<layer>.<component>.<name>_<unit>`` with optional
qualifier segments between component and leaf (``network.switch.vc0.
enqueue_packets_total``); the unit suffix obeys the same ``_ns`` /
``_bytes`` conventions simlint's SIM101 enforces on identifiers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "DEPTH_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SLACK_BUCKETS_NS",
    "WAIT_BUCKETS_NS",
    "class_counter",
]

Number = Union[int, float]

#: Deadline-slack buckets (ns): negative slack == the packet missed its
#: deadline.  Spans host-scale jitter (hundreds of ns) to the paper's
#: 10 ms video target.
SLACK_BUCKETS_NS: Tuple[int, ...] = (
    -1_000_000,
    -100_000,
    -10_000,
    -1_000,
    0,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
)

#: Queue-depth buckets (packets); VOQ depth beyond 256 means flow
#: control is broken, so the overflow bucket doubles as a tripwire.
DEPTH_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Arbitration-wait buckets (ns): time from VOQ enqueue to the packet
#: winning the output port.
WAIT_BUCKETS_NS: Tuple[int, ...] = (
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
)


class MetricError(ValueError):
    """Invalid metric construction or use (bad name, type clash, ...)."""


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "unit", "value")

    kind = "counter"

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value: int = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (delta={delta}); "
                "use a Gauge for levels that go down"
            )
        self.value += delta

    def to_dict(self) -> dict:
        return {"type": "counter", "unit": self.unit, "value": self.value}


class Gauge:
    """Last-sampled level."""

    __slots__ = ("name", "unit", "value")

    kind = "gauge"

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "unit": self.unit, "value": self.value}


class Histogram:
    """Fixed-bucket histogram over integers (or floats binned to them).

    ``bounds`` are strictly increasing upper bucket edges; bucket *i*
    counts observations ``bounds[i-1] < v <= bounds[i]`` and one
    overflow bucket counts everything above the last edge, so
    ``len(counts) == len(bounds) + 1`` and no observation is ever lost.
    """

    __slots__ = ("name", "unit", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable[int], unit: str = ""):
        edges = tuple(bounds)
        if not edges:
            raise MetricError(f"histogram {name!r} needs >= 1 bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name!r} bucket edges must be strictly increasing, got {edges}"
            )
        self.name = name
        self.unit = unit
        self.bounds: Tuple[int, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bucket edges) into this one."""
        if other.bounds != self.bounds:
            raise MetricError(
                f"cannot merge histogram {other.name!r} (edges {other.bounds}) "
                f"into {self.name!r} (edges {self.bounds})"
            )
        for index, n in enumerate(other.counts):
            self.counts[index] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "unit": self.unit,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Run-wide instrument registry.

    ``counter``/``gauge``/``histogram`` are get-or-create: every
    component asking for the same name shares one instrument, which is
    how per-switch events aggregate fabric-wide without any locking or
    label machinery.  Asking for an existing name with a different kind
    (or different histogram edges) is an error -- silent aliasing would
    corrupt both series.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    # -- get-or-create -----------------------------------------------------
    def counter(self, name: str, unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, unit=unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, unit=unit)

    def histogram(self, name: str, bounds: Iterable[int], unit: str = "") -> Histogram:
        edges = tuple(bounds)
        existing = self._instruments.get(name)
        if existing is not None and isinstance(existing, Histogram):
            if existing.bounds != edges:
                raise MetricError(
                    f"histogram {name!r} already registered with edges "
                    f"{existing.bounds}, asked for {edges}"
                )
        return self._get_or_create(Histogram, name, bounds=edges, unit=unit)

    def _get_or_create(self, cls, name: str, **kwargs):
        _validate_name(name)
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, **kwargs)
        elif not isinstance(instrument, cls):
            raise MetricError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"asked for {cls.kind}"
            )
        return instrument

    # -- introspection ------------------------------------------------------
    def get(self, name: str) -> Union[Counter, Gauge, Histogram]:
        try:
            return self._instruments[name]
        except KeyError:
            known = ", ".join(sorted(self._instruments)) or "(none)"
            raise KeyError(f"no metric named {name!r}; registered: {known}") from None

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as a stable (name-sorted) JSON-ready mapping."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }


def class_counter(metrics, cache: Dict[str, Counter], tclass: str, name_format: str, *, unit: str = "packets") -> Counter:
    """Get-or-mint the per-traffic-class counter for ``tclass``.

    Per-class counter names embed the class (``{tclass}`` placeholder in
    ``name_format``), so the name string -- and the registry lookup -- is
    only built on a class's *first* event; afterwards the instrument
    comes from ``cache`` with one dict probe.  This is the shared
    first-miss mint pattern used by ``FabricObserver.deliver`` (deadline
    misses per class) and ``PacketTracer.finish`` (retained traces per
    class).
    """
    counter = cache.get(tclass)
    if counter is None:
        counter = cache[tclass] = metrics.counter(name_format.format(tclass=tclass), unit=unit)
    return counter


def _validate_name(name: str) -> None:
    """Enforce the ``<layer>.<component>.<leaf>`` naming scheme."""
    if not name or name != name.strip():
        raise MetricError(f"metric name must be non-empty and unpadded, got {name!r}")
    parts = name.split(".")
    if len(parts) < 3:
        raise MetricError(
            f"metric name {name!r} must have >= 3 dot segments "
            "(<layer>.<component>.<name>_<unit>)"
        )
    for part in parts:
        if not part or not all(c.isalnum() or c in "_-" for c in part):
            raise MetricError(
                f"metric name segment {part!r} in {name!r} must be "
                "alphanumeric plus '_'/'-'"
            )
