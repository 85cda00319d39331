"""The discrete-event simulation kernel.

A calendar in a dict: one list per pending timestamp, beside a min-heap
of the distinct timestamps.  The seed's binary heap is the
differential-testing oracle and lives with the tests
(``tests/sim/heap_engine.py``).  Design notes, informed by profiling --
the dispatch loop and the two schedule methods are the hottest code in
the whole library:

- **One bucket per timestamp.**  ``_buckets[time]`` is the list of
  entries scheduled for ``time``, in schedule order, and ``_times`` is a
  min-heap holding each pending timestamp once, so the heap churns once
  per distinct timestamp instead of once per event (1.4-2.1 events per
  timestamp on the steady-state benchmark workloads; ARCHITECTURE.md
  section 10 has the measured table).  A bucket holds one timestamp and
  is only ever appended to, so append order *is* schedule order and
  ``_times`` orders the buckets: the ``(time, insertion)`` total order
  of the reference heap engine, with no sequence number stored anywhere.
- **Tombstone cancellation.**  ``at``/``after`` return ``None`` (the
  handle allocation was the single largest schedule-path cost); the
  ``*_cancellable`` variants return a fresh :class:`EventHandle` whose
  entry is a mutable ``[fn, args]`` cell.  ``cancel()`` swaps in a no-op
  and the dispatch loop discards the tombstone when it surfaces.  A
  handle names one event for life: a reference kept after ``cancel()``
  stays ``cancelled`` and can never revoke a later, unrelated event.
- Callbacks receive their pre-bound arguments; there is no per-event
  dictionary or keyword packing on the hot path.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = ["Engine", "EventHandle", "SimulationError"]

# Scheduling happens once per event; a module-global alias skips the
# module-then-builtins dict probes of `heapq.heappush` on every call.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel bound: every real timestamp/count is below it, so the run
#: loop compares against an int constant instead of testing
#: `is not None` twice per event (int/int compares stay in C).
_NO_BOUND = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


def _noop(*_args: Any) -> None:
    return None


class EventHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`Engine.at_cancellable`.  The plain
    :meth:`Engine.at` / :meth:`Engine.after` return ``None``: a handle allocation per event
    was the single largest cost on the schedule path, and almost no
    caller cancels.
    """

    __slots__ = ("time", "cancelled", "_entry")

    def __init__(self, time: int, entry: list):
        self.time = time
        self.cancelled = False
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after firing."""
        if self.cancelled:
            return
        self.cancelled = True
        # Tombstone the entry in place: the dispatch loop recognizes the
        # no-op by identity and discards it.  Dropping fn/args eagerly
        # also unpins the arguments of long-lived cancelled events.
        entry = self._entry
        entry[0] = _noop
        entry[1] = ()
        self._entry = _DEAD_ENTRY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {state}>"


#: Shared placeholder entry for cancelled handles (never dispatched).
_DEAD_ENTRY: list = [_noop, ()]


class Engine:
    """Event loop with integer-nanosecond virtual time.

    Typical use::

        eng = Engine()
        eng.after(100, my_callback, arg1, arg2)
        eng.run(until=1_000_000)

    The engine never advances past ``until``; events scheduled exactly at
    ``until`` do fire (closed interval), which lets warm-up and measurement
    windows abut without gaps.
    """

    __slots__ = (
        "now",
        "_buckets",
        "_times",
        "_running",
        "_stopped",
        "_events_executed",
        "_tombstones_discarded",
        "_count_live",
    )

    def __init__(self, start_time: int = 0):
        if start_time < 0:
            raise SimulationError(f"start time must be >= 0, got {start_time}")
        #: Current simulated time in nanoseconds.  A plain attribute, not a
        #: property: every packet end reads it, and a read costs no frame.
        #: Only the engine writes it.
        self.now: int = start_time
        #: one list per pending timestamp, never empty; append order ==
        #: schedule order.
        self._buckets: Dict[int, list] = {}
        #: min-heap of the keys of `_buckets` (pushed when a bucket is
        #: created, so entries are unique).
        self._times: List[int] = []
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._tombstones_discarded = 0
        self._count_live = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of callbacks fired so far (for microbenchmarks/tests).

        By default this is only refreshed when :meth:`run` returns; call
        :meth:`enable_live_event_count` first if you need it accurate
        *inside* a callback (telemetry does).
        """
        return self._events_executed

    def enable_live_event_count(self) -> None:
        """Refresh :attr:`events_executed` after every callback.

        Off by default: the per-event attribute store costs a few percent
        of pure dispatch throughput, so only observers that sample
        mid-run (e.g. :class:`repro.obs.telemetry.RunTelemetry`) should
        turn it on.  Irreversible for the engine's lifetime; cheap anyway
        once any instrumentation is attached.
        """
        self._count_live = True

    @property
    def pending(self) -> int:
        """Number of scheduled entries, *including* cancelled tombstones."""
        return sum(map(len, self._buckets.values()))

    @property
    def tombstones_discarded(self) -> int:
        """Cancelled entries surfaced and thrown away so far.

        The tombstone *ratio* (discarded / (discarded + executed)) is the
        health number: near 1.0 means most scheduling traffic is
        cancellation garbage and the scheduling pattern deserves a look.
        """
        return self._tombstones_discarded

    @property
    def tombstone_ratio(self) -> float:
        total = self._tombstones_discarded + self._events_executed
        return self._tombstones_discarded / total if total else 0.0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Returns ``None``; use :meth:`at_cancellable` if the event may
        need to be revoked.
        """
        # Integer nanoseconds, by identity: 100.0 hashes equal to 100 and
        # would share its bucket, then leak a float into `now`.
        if time.__class__ is not int:
            raise SimulationError(f"time must be an int (nanoseconds), got {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            _heappush(self._times, time)
        else:
            bucket.append((fn, args))

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds from now.

        Open-coded rather than delegating to :meth:`at`: most hot-path
        callers reschedule relative to now, and ``delay >= 0`` already
        guarantees the not-in-the-past invariant, so the extra call
        frame and re-check would be pure overhead (profiling puts this
        method second only to the run loop itself).  Returns ``None``;
        use :meth:`at_cancellable` if the event may need revoking.
        """
        if delay.__class__ is not int:
            raise SimulationError(f"delay must be an int (nanoseconds), got {delay!r}")
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            _heappush(self._times, time)
        else:
            bucket.append((fn, args))

    def at_cancellable(
        self, time: int, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time``; returns a cancellable handle."""
        if time.__class__ is not int:
            raise SimulationError(f"time must be an int (nanoseconds), got {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        entry = [fn, args]
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [entry]
            _heappush(self._times, time)
        else:
            bucket.append(entry)
        return EventHandle(time, entry)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in timestamp order.

        Stops when nothing is pending, when the next event lies beyond
        ``until``, after ``max_events`` callbacks, or when :meth:`stop` is
        called from inside a callback.  Returns the number of callbacks
        executed by *this* call.

        When stopping because of ``until``, the clock is advanced to
        ``until`` so back-to-back ``run(until=...)`` calls observe
        contiguous time.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        # Integer nanoseconds, by identity (as at the schedule calls): a
        # float bound would become `now` on the way out.
        if until is not None and until.__class__ is not int:
            raise SimulationError(f"until must be an int (nanoseconds), got {until!r}")
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")

        buckets = self._buckets
        times = self._times
        pop = _heappop
        length = len
        base = self._events_executed
        # Sentinel bounds: comparing against maxsize is always false for
        # real timestamps/counts, which removes two `is not None` tests
        # from every loop iteration.
        until_bound: Union[int, float] = _NO_BOUND if until is None else until
        limit: Union[int, float] = _NO_BOUND if max_events is None else max_events
        # With _count_live set, the public counter is refreshed after
        # every callback so observers sampling *inside* the loop (the
        # telemetry heartbeat's events/sec probe) see a moving count;
        # otherwise the loop keeps the cheaper local counter and the
        # attribute is refreshed once on the way out.
        live = self._count_live
        tombstones = 0
        executed = 0
        self._running = True
        self._stopped = False
        try:
            while times:
                t = times[0]
                bucket = buckets[t]
                # Reclaim the head-of-queue tombstone prefix *before* the
                # until/limit checks and without advancing the clock --
                # exact parity with the reference heap engine, which
                # discards cancelled head entries even when the next live
                # event lies beyond the window.
                k = 0
                for item in bucket:
                    if item[0] is not _noop:
                        break
                    k += 1
                if k:
                    tombstones += k
                    if k == length(bucket):
                        del buckets[pop(times)]
                        continue
                    del bucket[:k]
                if t > until_bound:
                    break
                if executed >= limit:
                    break
                pop(times)
                self.now = t
                consumed = 0
                # The key stays in `buckets` during the pass and CPython
                # list iteration observes appends, so events scheduled *at
                # the current time* by callbacks in this bucket are picked
                # up in the same pass, in order.
                for item in bucket:
                    f = item[0]
                    if f is _noop:
                        consumed += 1
                        tombstones += 1
                        continue
                    if executed >= limit:
                        break
                    consumed += 1
                    f(*item[1])
                    executed += 1
                    if live:
                        self._events_executed = base + executed
                    if self._stopped:
                        break
                if consumed != length(bucket):
                    # limit/stop hit mid-bucket: keep the unconsumed tail
                    # in place and re-register the timestamp so the next
                    # run() resumes exactly here.
                    del bucket[:consumed]
                    _heappush(times, t)
                    break
                del buckets[t]
                if self._stopped:
                    break
        finally:
            self._running = False
            self._events_executed = base + executed
            self._tombstones_discarded += tombstones
        if until is not None and not self._stopped and (
            max_events is None or executed < max_events
        ):
            self.now = max(self.now, until)
        return executed

    def run_all(self, max_events: int = 50_000_000) -> int:
        """Run until nothing is pending (bounded by ``max_events``)."""
        return self.run(max_events=max_events)

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this callback."""
        self._stopped = True
