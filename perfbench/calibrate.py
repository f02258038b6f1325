"""Host-speed calibration: express measured times at one reference speed.

The shared host this benchmark was built on changes speed by up to about
1.5x within seconds and drifts further over minutes, for every process
alike.  A run therefore takes a reading of a fixed pure-Python kernel before
its first query and again whenever `INTERVAL_S` of wall time has passed, and
once more at the end.  A query's time is scaled by

    REFERENCE_S / (mean of the readings just before and just after it)

so it reads as it would on a host where one reading takes `REFERENCE_S`.
The kernel is the benchmark's own code, so a change to the program moves
the scaled times and a change in the host's speed does not.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# one reading on the reference host: the median of READING_REPS kernel runs
# on two vCPUs of a shared Intel Xeon VM at 2.0 GHz, Python 3.11.7: about
# the median of its readings over many runs
REFERENCE_S = 2.0e-3
READING_REPS = 5
INTERVAL_S = 0.1

_ROWS = tuple(((i * 2654435761) >> 3) & 0xFFFFFFFFFF for i in range(1, 161))


def _kernel():
    """Interpreter-bound work in the program's idiom: bitset elimination over
    GF(2), dict and tuple traffic, a frozenset."""
    pivots = {}
    for r in _ROWS:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    d = {}
    for i in range(600):
        k = (i % 37, i % 11)
        d[k] = d.get(k, 0) + len(pivots)
    return len(pivots) + sum(d.values()) + len(frozenset(d))


def reading():
    """Seconds for four kernel runs, the median of READING_REPS tries.

    The collector is off while it runs, so the time does not depend on how
    many objects the program holds.
    """
    gc.disable()
    try:
        times = []
        for _ in range(READING_REPS):
            start = perf_counter()
            for _ in range(4):
                _kernel()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class Calibrator:
    """Readings taken between queries; segment i runs from reading i to i+1."""

    def __init__(self):
        self.readings = []
        self._last = None

    def read(self):
        self.readings.append(reading())
        self._last = perf_counter()

    def segment(self):
        """The segment the next query falls in, reading first if it is due."""
        if self._last is None or perf_counter() - self._last >= INTERVAL_S:
            self.read()
        return len(self.readings) - 1

    def factor(self, seg):
        """Scale for times in segment seg; call read() once after the last
        query, so every segment has a closing reading."""
        after = self.readings[min(seg + 1, len(self.readings) - 1)]
        return REFERENCE_S / ((self.readings[seg] + after) / 2)
