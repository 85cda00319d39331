"""Host-speed probe: a fixed loop timed ten times a second inside every child.

The sandbox this benchmark runs in is a small VM whose speed is set by
its neighbours: a fixed loop here takes 1.0x or about 1.7x its best
time, flipping every second or so, and the share of slow seconds drifts
between ~10 % and ~80 % over an hour (``process_time / wall`` stays
~0.99, so the guest cannot see it).  The same child then takes 8 s or
13 s.  Rounds a few seconds apart share most of that, so no median over
them removes it, and a calibration *between* children samples the wrong
seconds.  So each child samples its own: every ``PERIOD_S`` of host time
a ``SIGALRM`` handler pauses the main thread for one short fixed loop
and records how long it took.  The child then reports::

    host_speed = REFERENCE_S / mean(loop times)
    seconds    = (measured seconds - seconds paused) * host_speed

that is, its host times as they would read at the reference speed.  The
loop knows nothing of ``repro``, so a change to the simulator cannot
move it; it touches only its own data, so the simulation cannot see it
(the digests checked on every run would show it).  What it cannot remove
is slowness the loop does not share, such as a neighbour thrashing the
cache (README, "Measured spread").  Raw seconds, the pause total and the
factor stay in every child's record.  The traced child runs without a
probe -- ``cProfile`` slows the loop and the simulator differently -- so
its seconds are raw; its shares and counts do not depend on speed.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List, Tuple

#: Loop time that counts as speed 1.0 (about this sandbox at its fastest).
REFERENCE_S = 0.0045
PERIOD_S = 0.1
_OBJECTS = 2048
_STEPS = 48_000


class _Item:
    __slots__ = ("deadline", "uid", "size")

    def __init__(self, deadline: int, uid: int, size: int):
        self.deadline = deadline
        self.uid = uid
        self.size = size


class SpeedProbe:
    """Samples the host's speed while the code between start() and
    stop() runs on the main thread."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)  # the loop's own inputs, never --seed
        self._items = [
            _Item(rng.randrange(1 << 30), uid, 64 + uid % 1500) for uid in range(_OBJECTS)
        ]
        self._order = [rng.randrange(_OBJECTS) for _ in range(_STEPS)]
        #: (host time the pause began, its length) per sample
        self.ticks: List[Tuple[float, float]] = []

    def start(self) -> None:
        self._tick()  # so that even the shortest child has one sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum: int = 0, frame: object = None) -> None:
        # Slot loads, indexing, tuple builds and compares, integer
        # arithmetic: interpreter work like the simulator's, minus calls.
        started = time.perf_counter()
        items = self._items
        best = (0, 0)
        total = 0
        for index in self._order:
            item = items[index]
            key = (item.deadline, item.uid)
            if key > best:
                best = key
            total += item.size & 7
        self.ticks.append((started, time.perf_counter() - started))

    def paused_s(self, since: float, until: float) -> float:
        """Seconds the main thread spent in the probe in [since, until)."""
        return sum(length for began, length in self.ticks if since <= began < until)

    def host_speed(self) -> float:
        return REFERENCE_S / statistics.mean(length for _, length in self.ticks)
