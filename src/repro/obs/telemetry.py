"""Run telemetry: one heartbeat over one fabric, with optional live progress.

:class:`RunTelemetry` rides the simulation engine itself: every
``heartbeat_ns`` of *simulated* time it reads the fabric's six probes,
appends the row to its own keep-newest log, mirrors the values into
registry gauges, folds the component tallies into counters
(:func:`sync_component_totals`), and -- when live mode is on -- rewrites
one stderr status line with sim-time, events/sec, and an ETA.

Determinism note: telemetry ticks are ordinary engine events, but they
only *read* simulation state and the engine allocates sequence numbers at
scheduling time, so the relative order of all other events -- and
therefore every simulation result -- is unchanged whether telemetry is
attached or not.  The determinism tests hold with and without a heartbeat.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

__all__ = ["RunTelemetry", "sync_component_totals"]


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
    """The heartbeat of one engine + fabric pair; ticking from construction.

    >>> from repro.experiments.presets import make_topology
    >>> from repro.network.fabric import Fabric
    >>> fabric = Fabric(make_topology("tiny"))
    >>> tel = RunTelemetry(fabric.engine, fabric, heartbeat_ns=1000, until_ns=3000)
    >>> fabric.run(until=3000)
    >>> [t_ns for t_ns, _ in tel.samples]
    [1000, 2000, 3000]
    >>> tel.samples[-1][1]["network.fabric.packets_in_flight"]
    0
    """

    #: Heartbeat-row bound: keep-newest, so a runaway horizon (or
    #: a scale run with a tiny heartbeat) cannot grow the log without
    #: limit.  65536 rows cover any paper-scale run without eviction.
    TIMESERIES_CAPACITY = 65536

    def __init__(
        self,
        engine,
        fabric,
        *,
        heartbeat_ns: int,
        metrics=None,
        live: bool = False,
        until_ns: Optional[int] = None,
        stream=None,
    ):
        self.engine = engine
        self.fabric = fabric
        self.heartbeat_ns = self.check_interval(heartbeat_ns)
        self.metrics = metrics
        self.live = live
        #: Bounds the ticking (and feeds the live ETA); ``None`` ticks forever.
        self.until_ns = until_ns
        self.stream = stream if stream is not None else sys.stderr
        #: One row per heartbeat, ``(sim time ns, {gauge name: value})``,
        #: the newest :attr:`TIMESERIES_CAPACITY` kept.
        self.samples: Deque[Tuple[int, Dict[str, float]]] = deque(
            maxlen=self.TIMESERIES_CAPACITY
        )
        self.ticks = 0
        # Mid-run sampling needs the engine's executed count refreshed
        # per event, not just when run() returns.
        engine.enable_live_event_count()
        self._last_wall = time.perf_counter()  # simlint: allow-wallclock
        self._last_events = engine.events_executed
        engine.after(self.heartbeat_ns, self._tick)

    @staticmethod
    def check_interval(heartbeat_ns: int) -> int:
        """``heartbeat_ns`` if it can pace a heartbeat (the CLI asks before a run exists)."""
        if type(heartbeat_ns) is not int or heartbeat_ns <= 0:
            raise ValueError(f"heartbeat must be a positive int of ns, got {heartbeat_ns!r}")
        return heartbeat_ns

    @property
    def dropped(self) -> int:
        """Rows the log has evicted, oldest first."""
        return self.ticks - len(self.samples)

    def snapshot(self) -> dict:
        """The log as the run snapshot's ``timeseries`` section."""
        return {
            "samples": [
                {"t_ns": t_ns, "values": dict(sorted(row.items()))} for t_ns, row in self.samples
            ],
            "capacity": self.samples.maxlen,
            "dropped": self.dropped,
        }

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        engine, fabric = self.engine, self.fabric
        now_ns = engine.now
        wall = time.perf_counter()  # simlint: allow-wallclock
        wall_delta_s = wall - self._last_wall
        events = engine.events_executed
        events_per_sec = (
            (events - self._last_events) / wall_delta_s if wall_delta_s > 0 else 0.0
        )
        self._last_wall = wall
        self._last_events = events

        values = {
            "sim.engine.events_per_sec": events_per_sec,
            "sim.engine.heap_depth_events": engine.pending,
            "sim.engine.tombstone_ratio": engine.tombstone_ratio,
            "network.fabric.packets_in_flight": fabric.packets_in_flight(),
            "network.switch.queued_packets": fabric.queued_in_switches(),
            "network.host.queued_packets": fabric.queued_in_hosts(),
            "network.link.utilization_ratio": fabric.link_utilization(),
        }
        self.samples.append((now_ns, values))
        if self.metrics is not None:
            for name, value in values.items():
                self.metrics.gauge(name).set(value)
            sync_component_totals(engine, fabric, self.metrics)
        self.ticks += 1
        if self.live:
            self._emit_progress(now_ns, events_per_sec, wall_delta_s)
        next_ns = now_ns + self.heartbeat_ns
        if self.until_ns is None or next_ns <= self.until_ns:
            engine.after(self.heartbeat_ns, self._tick)
        elif self.live:
            self.stream.write("\n")

    def _emit_progress(self, now_ns: int, events_per_sec: float, wall_delta_s: float) -> None:
        parts = [f"t={now_ns / 1e6:.3f}ms", f"{events_per_sec:,.0f} ev/s"]
        until_ns = self.until_ns
        if until_ns and wall_delta_s > 0:
            sim_ns_per_wall_s = self.heartbeat_ns / wall_delta_s
            if sim_ns_per_wall_s > 0:
                eta_s = (until_ns - now_ns) / sim_ns_per_wall_s
                parts.append(f"eta {eta_s:.1f}s")
        self.stream.write("\r[telemetry] " + "  ".join(parts) + " ")
        flush = getattr(self.stream, "flush", None)
        if flush is not None:
            flush()
