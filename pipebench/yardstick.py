"""Host-speed yardstick: a fixed piece of work timed between operations.

The benchmark runs on a shared host whose speed switches between levels
up to ~1.9x apart, for seconds to minutes at a time, so one run can sit in
a slow stretch and the next in a fast one.  The slow level hits
interpreted code (object allocation, dict and set operations, `Fraction`
arithmetic) much more than numpy passes over memory, so the yardstick is
a small, fixed piece of work of the first kind, in the style of the
pipeline's hot code, run with the garbage collector off.  It runs before
a timed operation whenever `INTERVAL_S` has passed since the last one,
and once after the last operation.  `Yardstick.scale(start, end)` then turns an operation's
wall time into the time it would take on a host where the yardstick takes
`NOMINAL_S`: the measured time divided by (median yardstick time within
`WINDOW_S` of the operation) / `NOMINAL_S`.

The yardstick calls no package code, so a change to the package moves a
scaled time exactly as much as the raw one.  Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010  # the yardstick time that scaled times refer to
INTERVAL_S = 0.25  # at most one yardstick per this much wall time
WINDOW_S = 1.0  # yardsticks this close to an operation scale it

_N = 2000
_PAIRS = [((i * 7919) % _N, (i * 104729) % _N) for i in range(24000)]


def work() -> int:
    """The fixed piece of work; returns a checksum so nothing is skipped."""
    names = {}
    for i in range(30000):
        names[str(i)] = i
    adj: list[set[int]] = [set() for _ in range(_N)]
    for i, j in _PAIRS:
        adj[i].add(j)
        adj[j].add(i)
    common = sum(len(adj[i] & adj[j]) for i, j in _PAIRS[:6000])
    f = Fraction(0)
    for i in range(1, 1200):
        f += Fraction(i % 7 + 1, i % 13 + 2)
    return len(names) + common + f.denominator


class Yardstick:
    """Times `work()` now and then; scales operation times by it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ends: list[float] = []  # when each yardstick finished
        self.durations: list[float] = []

    def measure(self) -> None:
        """Run `work()` once untimed, then time it.  The first run pays for
        what the package's last call left behind (cold caches, for one),
        which depends on that call more than on the host."""
        # the collector's pauses depend on what the process holds, not on
        # the host; `work` makes no reference cycles
        gc.disable()
        try:
            work()
            t0 = self.clock()
            work()
            t1 = self.clock()
        finally:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def maybe(self) -> None:
        """Measure unless the last yardstick ended less than INTERVAL_S ago."""
        if not self.ends or self.clock() - self.ends[-1] >= INTERVAL_S:
            self.measure()

    def slowness(self, start: float, end: float) -> float:
        """Median yardstick time around [start, end], over NOMINAL_S.  The
        window takes every yardstick that ended within WINDOW_S of the
        interval, and always the last one before it and the first after."""
        if not self.ends:
            raise RuntimeError("no yardstick measured")
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        lo = min(bisect.bisect_left(self.ends, start - WINDOW_S), max(before, 0))
        hi = max(bisect.bisect_right(self.ends, end + WINDOW_S), after + 1)
        return statistics.median(self.durations[lo:hi]) / NOMINAL_S

    def scale(self, start: float, end: float) -> float:
        """The operation's wall time at nominal host speed."""
        return (end - start) / self.slowness(start, end)
