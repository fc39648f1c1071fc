"""The reference task: a fixed piece of work, independent of meanskit, that
is timed between operations so that each latency can be expressed in the
speed the machine had at that moment.

The benchmark shares its hardware with other tenants, and the speed of a
single core drifts by 15-25% over minutes and flips between a slow and a
fast state within seconds.  Every statistic of a wall-clock time drifts
with it.  The reference task runs on the same core, in the same process,
within ``GAP_S`` of each operation, so the ratio of an operation's time to
the reference time cancels most of that drift.  One ``ref_ms`` is the time
of one reference task; on this kind of machine it is 0.7-1.0 wall ms.

The task mixes what the workloads spend their time on: interpreted Python,
small LAPACK calls and one medium one.  It calls numpy directly, never
meanskit, so a change to the program cannot change the reference.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

GAP_S = 0.05  # wall time after a reading before the next operation takes another


def _pd(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + np.eye(n)


class Reference:
    """Readings of the reference task, in wall seconds, taken by ``poll``
    before an operation once ``GAP_S`` has passed since the last one."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _pd(rng, 8)
        self.medium = _pd(rng, 64)
        self.readings = []
        self._last = -math.inf

    def _task(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i
        for _ in range(10):
            np.linalg.eigh(self.small)
        np.linalg.eigh(self.medium)
        return time.perf_counter() - start

    def read(self) -> None:
        # The faster of two back-to-back runs, so that one interrupt does
        # not set the scale of every operation around it.
        self.readings.append(min(self._task(), self._task()))
        self._last = time.perf_counter()

    def poll(self) -> int:
        """Index of the reading that precedes the next operation."""
        if time.perf_counter() - self._last >= GAP_S:
            self.read()
        return len(self.readings) - 1

    @property
    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.readings)


def in_ref_ms(latencies, readings_at, readings) -> list:
    """Each latency divided by the mean of the readings taken just before
    and just after it: its time in ref_ms.  The run takes a last reading
    after its last operation, so every latency has both."""
    return [lat / (0.5 * (readings[i] + readings[i + 1]))
            for lat, i in zip(latencies, readings_at)]
