"""The seed binary-heap event kernel: the event engine's test oracle.

This is the engine the repo shipped with through PR 8, preserved
byte-for-byte in behaviour so the differential harness
(``tests/sim/test_engine_differential.py``) can prove the dict-calendar
:class:`repro.sim.engine.Engine` dispatches the exact same event order:
same seed through both engines must yield byte-identical run summaries.
It lives beside that harness, like ``tests/core/scanning_pickers.py``
and ``tests/network/updown_oracle.py``; nothing under ``src/`` imports
it, and ``run_experiment(engine_factory=HeapEngine)`` is the seam the
harness substitutes it through.

Original design notes (a classic calendar-heap event loop):

- Heap entries are plain ``(time, seq, handle)`` tuples: the sequence
  number is unique, so tuple comparison resolves in C without ever
  touching the handle -- profiling showed object-level ``__lt__`` was the
  single largest cost before this change.  The monotonically increasing
  sequence number also makes simultaneous events fire in scheduling
  order, keeping runs bit-for-bit reproducible.
- Cancellation is by tombstone: :meth:`HeapEventHandle.cancel` flags the entry
  and the loop discards it when popped.  This avoids O(n) heap surgery.
- Callbacks receive their pre-bound arguments; there is no per-event
  dictionary or keyword packing on the hot path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Union

__all__ = ["HeapEngine"]

from repro.sim.engine import SimulationError

# Scheduling happens once per event; a module-global alias skips the
# module-then-builtins dict probes of `heapq.heappush` on every call.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel bound: `entry_time > _NO_BOUND` and `executed >= _NO_BOUND`
#: are always false, so the run loop compares against a constant instead
#: of testing `is not None` twice per event.
_NO_BOUND = float("inf")


class HeapEventHandle:
    """A scheduled callback.  Returned by :meth:`Engine.at` / :meth:`Engine.after`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after firing."""
        self.cancelled = True
        # Drop references eagerly: a cancelled event may sit in the heap for
        # a long simulated time and would otherwise pin its arguments alive.
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class HeapEngine:
    """Event loop with integer-nanosecond virtual time.

    Typical use::

        eng = Engine()
        eng.after(100, my_callback, arg1, arg2)
        eng.run(until=1_000_000)

    The engine never advances past ``until``; events scheduled exactly at
    ``until`` do fire (closed interval), which lets warm-up and measurement
    windows abut without gaps.
    """

    def __init__(self, start_time: int = 0):
        if start_time < 0:
            raise SimulationError(f"start time must be >= 0, got {start_time}")
        self._now: int = start_time
        self._seq: int = 0
        #: heap of (time, seq, handle); seq is unique, so comparisons never
        #: reach the handle (pure C tuple ordering).
        self._heap: list[tuple[int, int, HeapEventHandle]] = []
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._tombstones_discarded = 0
        self._count_live = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

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
        """Number of heap entries, *including* cancelled tombstones."""
        return len(self._heap)

    @property
    def tombstones_discarded(self) -> int:
        """Cancelled entries popped and thrown away so far.

        The tombstone *ratio* (discarded / (discarded + executed)) is the
        health number: near 1.0 means most heap traffic is cancellation
        garbage and the scheduling pattern deserves a look.
        """
        return self._tombstones_discarded

    @property
    def tombstone_ratio(self) -> float:
        total = self._tombstones_discarded + self._events_executed
        return self._tombstones_discarded / total if total else 0.0

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
            self._tombstones_discarded += 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> HeapEventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        self._seq += 1
        ev = HeapEventHandle(time, self._seq, fn, args)
        _heappush(self._heap, (time, self._seq, ev))
        return ev

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> HeapEventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds from now.

        Open-coded rather than delegating to :meth:`at`: most hot-path
        callers reschedule relative to now, and `delay >= 0` already
        guarantees the not-in-the-past invariant, so the extra call
        frame and re-check would be pure overhead (profiling puts this
        method second only to the run loop itself).
        """
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        self._seq += 1
        ev = HeapEventHandle(time, self._seq, fn, args)
        _heappush(self._heap, (time, self._seq, ev))
        return ev

    # ------------------------------------------------------------------
    # API parity with repro.sim.engine.Engine (components call these)
    # ------------------------------------------------------------------
    def at_cancellable(self, time, fn, *args) -> HeapEventHandle:
        """Alias: every heap-engine event is cancellable."""
        return self.at(time, fn, *args)

    def after_cancellable(self, delay, fn, *args) -> HeapEventHandle:
        """Alias: every heap-engine event is cancellable."""
        return self.after(delay, fn, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in timestamp order.

        Stops when the heap drains, when the next event lies beyond
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
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")

        heap = self._heap
        pop = _heappop
        base = self._events_executed
        # Sentinel bounds: comparing against +inf is always false, which
        # removes two `is not None` tests from every loop iteration.
        until_bound: Union[int, float] = _NO_BOUND if until is None else until
        limit: Union[int, float] = _NO_BOUND if max_events is None else max_events
        # With _count_live set, the public counter is refreshed after
        # every callback so observers sampling *inside* the loop (the
        # telemetry heartbeat's events/sec probe) see a moving count;
        # otherwise the loop keeps the cheaper local counter and the
        # attribute is refreshed once on the way out.
        live = self._count_live
        executed = 0
        self._running = True
        self._stopped = False
        try:
            while heap:
                entry = heap[0]
                ev = entry[2]
                if ev.cancelled:
                    pop(heap)
                    self._tombstones_discarded += 1
                    continue
                if entry[0] > until_bound:
                    break
                if executed >= limit:
                    break
                pop(heap)
                self._now = entry[0]
                ev.fn(*ev.args)
                executed += 1
                if live:
                    self._events_executed = base + executed
                if self._stopped:
                    break
        finally:
            self._running = False
            self._events_executed = base + executed
        if until is not None and not self._stopped and (
            max_events is None or executed < max_events
        ):
            self._now = max(self._now, until)
        return executed

    def run_all(self, max_events: int = 50_000_000) -> int:
        """Run until the event heap is empty (bounded by ``max_events``)."""
        return self.run(max_events=max_events)

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this callback."""
        self._stopped = True
