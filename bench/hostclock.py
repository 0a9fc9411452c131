"""Op timing corrected for the speed of a shared host.

On a shared VM the vCPU moves between speed regimes up to about 1.8x apart,
for seconds or for minutes at a time, as other tenants load the same physical
core.  A wall-clock time then says as much about the neighbours as about the
program, and no run length averages it out when a slow regime lasts minutes.

``HostClock`` samples the host's speed while ops run: every ``INTERVAL_S`` a
``SIGALRM`` handler times a fixed piece of pure-Python work, the probe
(rational arithmetic, small objects and dict updates, like modend's own inner
loops).  :meth:`HostClock.seconds` turns a wall-clock interval into reference
seconds: the time spent in the handler is removed, and each stretch between
two probes is scaled by ``REF_PROBE_S`` over the median time of the probes
around it.  A reference second is what a wall-clock second would be on a host
where the probe takes ``REF_PROBE_S``: the fast regime of the 2-vCPU Xeon VM
on which the baselines in ``baseline.json`` were taken.  The probe is
benchmark code, so a change to the program moves reference seconds exactly as
it moves wall-clock seconds on a steady host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
REF_PROBE_S = 70e-6
NEIGHBOURS = 2  # probes on each side of a stretch that set its speed


class _Cell:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


def probe() -> Fraction:
    """The fixed work whose duration measures the host's speed."""
    acc = Fraction(0)
    cells = {}
    for i in range(1, 13):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        cells[i & 3] = _Cell(acc, i)
    return acc


class HostClock:
    """Samples host speed while installed (``with HostClock() as clock:``)."""

    def __init__(self):
        self.starts = []  # handler entry times, ascending
        self.ends = []    # handler exit times
        self.probes = []  # probe durations
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.probes.append(t1 - t0)
        self.ends.append(time.perf_counter())

    def _speed(self, index: int) -> float:
        """Reference seconds per wall-clock second around probe ``index``."""
        index = min(max(index, 0), len(self.probes) - 1)
        near = self.probes[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1]
        return REF_PROBE_S / statistics.median(near)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time between two ``perf_counter`` readings."""
        if not self.probes:
            return end - start
        first = bisect.bisect_right(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total, edge = 0.0, start
        for i in range(first, last):
            total += (self.starts[i] - edge) * self._speed(i)
            edge = self.ends[i]
        return total + max(0.0, end - edge) * self._speed(last)
