"""Host speed: a fixed reference computation timed between passes.

On a shared machine the host's speed can change by up to 2x within
minutes as neighbours come and go.  On a 2-vCPU Xeon virtual machine,
one tpch-loop pass took 1.3 s during one such burst and 2.3 s a few
seconds later, and a reference loop slowed by about the same factor.
Timing a reference that shares no code with MiniDB next to the workload
gives the factor by which the host ran slow; end-to-end times are
reported scaled by it, as they would read on a host that runs the
reference in :data:`NOMINAL_S`.  In the measured window the reference
is timed every :data:`INTERVAL_S` between statements, and each
statement is scaled by the samples just before and after it, because a
burst lasts seconds, not the whole window.  The raw figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: Reference slices per sample; one slice takes about a millisecond.
SLICES = 10
#: Reference slice time that defines unit host speed.
NOMINAL_S = 1.0e-3
#: Least time between two samples taken by :meth:`HostSpeed.tick`.
INTERVAL_S = 0.25


def reference_slice(data: np.ndarray) -> int:
    """Interpreted dict and tuple work plus a NumPy argsort, the two
    kinds of work MiniDB's executors do."""
    counts = {}
    for i in range(600):
        key = (i * 7919) % 97, i & 3
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + int(np.argsort(data, kind="stable")[0])


class HostSpeed:
    """Reference-slice timings taken between measured work."""

    def __init__(self):
        self._data = np.random.default_rng(0).random(8192)
        #: Every slice time, and the median slice time of each sample.
        self.samples: List[float] = []
        self.medians: List[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time :data:`SLICES` reference slices."""
        times = []
        for __ in range(SLICES):
            start = time.perf_counter()
            reference_slice(self._data)
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        self.medians.append(statistics.median(times))
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Sample if :data:`INTERVAL_S` has passed since the last sample;
        return the mark of work done next: the number of samples so far.
        Sample once more after the last work."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.medians)

    def local(self, mark: int) -> float:
        """Slowdown around work done after :meth:`tick` returned *mark*:
        the mean of the samples just before and just after it."""
        after = self.medians[min(mark, len(self.medians) - 1)]
        return (self.medians[mark - 1] + after) / 2.0 / NOMINAL_S

    def slowdown(self) -> float:
        """Median slice time over :data:`NOMINAL_S` (> 1: host ran slow)."""
        return statistics.median(self.samples) / NOMINAL_S
