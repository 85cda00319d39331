"""Run telemetry: heartbeat sampling and optional live progress.

:class:`RunTelemetry` rides the simulation engine itself: it schedules a
tick every ``heartbeat_ns`` of *simulated* time, reads a set of named
samplers (plain callables), records the row into a
:class:`repro.stats.timeseries.GaugeTimeSeries`, mirrors the values into
registry gauges, and -- when live mode is on -- rewrites one stderr
status line with sim-time, events/sec, and an ETA.

Determinism note: telemetry ticks are ordinary engine events, but they
only *read* simulation state (samplers must be pure observers) and the
engine allocates sequence numbers at scheduling time, so the relative
order of all other events -- and therefore every simulation result -- is
unchanged whether telemetry is attached or not.  The determinism tests
hold with and without a heartbeat.

:func:`fabric_samplers` supplies the standard probe set for a
:class:`~repro.network.fabric.Fabric`; :func:`sync_component_totals`
folds the always-on component tallies (grants, take-over hits, link
busy time, engine tombstones) into registry counters so they appear in
snapshots.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.stats.timeseries import GaugeTimeSeries

__all__ = [
    "RunTelemetry",
    "attach_run_telemetry",
    "fabric_samplers",
    "sync_component_totals",
]

Sampler = Tuple[str, Callable[[], float]]


def fabric_samplers(engine, fabric) -> List[Sampler]:
    """The standard gauge probes for one engine + fabric pair.

    Everything here is a pure observer -- nothing mutates simulation
    state, which is what keeps telemetry runs bit-identical to bare runs.
    """
    return [
        ("sim.engine.heap_depth_events", lambda: engine.pending),
        ("sim.engine.tombstone_ratio", lambda: engine.tombstone_ratio),
        ("network.fabric.packets_in_flight", fabric.packets_in_flight),
        ("network.switch.queued_packets", fabric.queued_in_switches),
        ("network.host.queued_packets", fabric.queued_in_hosts),
        ("network.link.utilization_ratio", fabric.link_utilization),
    ]


def sync_component_totals(engine, fabric, metrics) -> None:
    """Fold always-on component tallies into registry counters.

    Hot components keep some totals as bare ints (cheap enough to leave
    on without a registry); this lifts them into ``metrics`` so
    ``snapshot()`` sees them, and does nothing when it is ``None``.  Every
    arbitration grant is a forwarded packet, so ``grants_total`` is read
    off the switches here, not counted per grant.  Safe to call
    repeatedly -- counters are advanced by the delta since the last sync.
    """
    if metrics is None:
        return
    _sync(
        metrics.counter("core.arbiter.grants_total", unit="grants"),
        sum(switch.packets_forwarded for switch in fabric.switches.values()),
    )
    _sync(metrics.counter("core.takeover.hits_total", unit="packets"), fabric.takeover_hits())
    _sync(
        metrics.counter("network.link.busy_ns_total", unit="ns"),
        sum(link.busy_ns for link in fabric.links.values()),
    )
    _sync(metrics.counter("sim.engine.events_total", unit="events"), engine.events_executed)
    _sync(
        metrics.counter("sim.engine.tombstones_total", unit="events"),
        engine.tombstones_discarded,
    )


def _sync(counter, total: int) -> None:
    delta = total - counter.value
    if delta > 0:
        counter.inc(delta)


class RunTelemetry:
    """Heartbeat sampler bound to one engine.

    >>> from repro.sim.engine import Engine
    >>> eng = Engine()
    >>> tel = RunTelemetry(eng, heartbeat_ns=1000)
    >>> tel.add_sampler("sim.engine.heap_depth_events", lambda: eng.pending)
    >>> tel.start(until_ns=3000)
    >>> eng.run(until=3000)
    3
    >>> len(tel.timeseries)
    3
    """

    #: Heartbeat-row bound: keep-newest, so a runaway horizon (or
    #: a scale run with a tiny heartbeat) cannot grow the log without
    #: limit.  65536 rows cover any paper-scale run without eviction.
    TIMESERIES_CAPACITY = 65536

    def __init__(
        self,
        engine,
        *,
        heartbeat_ns: int,
        metrics=None,
        live: bool = False,
        stream=None,
    ):
        self.engine = engine
        self.heartbeat_ns = self.check_interval(heartbeat_ns)
        self.metrics = metrics
        self.live = live
        self.stream = stream if stream is not None else sys.stderr
        self.timeseries = GaugeTimeSeries(capacity=self.TIMESERIES_CAPACITY)
        self.ticks = 0
        self._samplers: List[Sampler] = []
        self._after_tick: List[Callable[[], None]] = []
        self._until_ns: Optional[int] = None
        self._last_wall: Optional[float] = None
        self._last_events = 0

    @staticmethod
    def check_interval(heartbeat_ns: int) -> int:
        """``heartbeat_ns`` if it can pace a heartbeat (the CLI asks before a run exists)."""
        if heartbeat_ns <= 0:
            raise ValueError(f"heartbeat must be positive, got {heartbeat_ns}")
        return heartbeat_ns

    def add_sampler(self, name: str, fn: Callable[[], float]) -> None:
        """Register a named gauge probe (must be a pure observer)."""
        self._samplers.append((name, fn))

    def on_tick(self, fn: Callable[[], None]) -> None:
        """Register extra per-tick work (e.g. counter syncing)."""
        self._after_tick.append(fn)

    def start(self, until_ns: Optional[int] = None) -> None:
        """Schedule the first heartbeat; ``until_ns`` bounds the ticking
        (and feeds the live ETA)."""
        self._until_ns = until_ns
        # Mid-run sampling needs the engine's executed count refreshed
        # per event, not just when run() returns.
        live_count = getattr(self.engine, "enable_live_event_count", None)
        if live_count is not None:
            live_count()
        self._last_wall = time.perf_counter()  # simlint: allow-wallclock
        self._last_events = self.engine.events_executed
        self.engine.after(self.heartbeat_ns, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        engine = self.engine
        now_ns = engine.now
        wall = time.perf_counter()  # simlint: allow-wallclock
        wall_delta_s = wall - self._last_wall if self._last_wall is not None else 0.0
        events = engine.events_executed
        events_per_sec = (
            (events - self._last_events) / wall_delta_s if wall_delta_s > 0 else 0.0
        )
        self._last_wall = wall
        self._last_events = events

        values = {"sim.engine.events_per_sec": events_per_sec}
        for name, fn in self._samplers:
            values[name] = fn()
        self.timeseries.append(now_ns, values)
        if self.metrics is not None:
            for name, value in values.items():
                self.metrics.gauge(name).set(value)
        for fn in self._after_tick:
            fn()
        self.ticks += 1
        if self.live:
            self._emit_progress(now_ns, events_per_sec, wall_delta_s)
        next_ns = now_ns + self.heartbeat_ns
        if self._until_ns is None or next_ns <= self._until_ns:
            engine.after(self.heartbeat_ns, self._tick)
        elif self.live:
            self.stream.write("\n")

    def _emit_progress(self, now_ns: int, events_per_sec: float, wall_delta_s: float) -> None:
        parts = [f"t={now_ns / 1e6:.3f}ms", f"{events_per_sec:,.0f} ev/s"]
        until_ns = self._until_ns
        if until_ns and wall_delta_s > 0:
            sim_ns_per_wall_s = self.heartbeat_ns / wall_delta_s
            if sim_ns_per_wall_s > 0:
                eta_s = (until_ns - now_ns) / sim_ns_per_wall_s
                parts.append(f"eta {eta_s:.1f}s")
        self.stream.write("\r[telemetry] " + "  ".join(parts) + " ")
        flush = getattr(self.stream, "flush", None)
        if flush is not None:
            flush()


def attach_run_telemetry(
    engine,
    fabric,
    *,
    heartbeat_ns: int,
    metrics=None,
    live: bool = False,
    until_ns: Optional[int] = None,
    stream=None,
) -> RunTelemetry:
    """Build a :class:`RunTelemetry` wired with the standard fabric
    probes and counter syncing, and start its heartbeat."""
    telemetry = RunTelemetry(
        engine, heartbeat_ns=heartbeat_ns, metrics=metrics, live=live, stream=stream
    )
    for name, fn in fabric_samplers(engine, fabric):
        telemetry.add_sampler(name, fn)
    telemetry.on_tick(lambda: sync_component_totals(engine, fabric, metrics))
    telemetry.start(until_ns=until_ns)
    return telemetry
