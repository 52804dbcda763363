"""Host speed: a fixed reference kernel, timed again and again through a run.

The benchmark runs on a share of a shared host whose speed changes within
fractions of a second, by up to 1.8x (measured on a 2-core x86-64 VM: the
kernel below took 1.7 ms or 3.0 ms from one moment to the next, on either
core, and the process's CPU time slowed with its wall time, so no counter
of stolen time shows it).  Unscaled, the same run's median latency spread
by 23-36% (interquartile range over median) across runs.  So every time
the benchmark reports end to end is scaled to the reference host: divided
by the kernel's time measured around it, over ``REFERENCE_S``.  Scaled,
the same spreads were 1-6%.

The kernel is code of the benchmark's own that mixes what relequil does,
interpreter work and small LAPACK and matrix calls, so a change to
relequil moves the scaled times and a change of host speed does not.
The unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The median kernel time between relequil operations, on a 2-core x86-64 VM
# in its fast state, with one BLAS thread.
REFERENCE_S = 1.7e-3
EVERY_S = 0.1           # a sample at most this often, between operations
MARGIN_S = 0.25         # an interval's slowness uses samples this close to it
SETUP_SAMPLES = 10      # samples a set-up probe takes once it is set up

_A = np.sin(np.arange(576.0)).reshape(24, 24)
_EYE = np.eye(6)


def kernel():
    total = 0.0
    for i in range(4000):
        total += (i % 7) * 0.5
    table = {}
    for i in range(600):
        table[(i, i % 5)] = [i, total]
    for _ in range(6):
        np.linalg.eigvals(_A)
    b = _A[:6, :6]
    for _ in range(300):
        (b @ b) * 0.1 + _EYE
    return total


class Gauge:
    """Kernel times, each with the moment it was taken (``time.perf_counter``)."""

    def __init__(self):
        kernel()                                  # warm-up, not kept
        self.times, self.samples = [], []
        self.take()

    def take(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def tick(self):
        """Take a sample if EVERY_S has passed since the last one."""
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self.take()

    def slowness(self, start, end):
        """Host slowness over [start, end]: the median kernel time of the
        samples within MARGIN_S of it (else the nearest one) over REFERENCE_S."""
        i = bisect.bisect_left(self.times, start - MARGIN_S)
        j = bisect.bisect_right(self.times, end + MARGIN_S)
        near = self.samples[i:j] or [self.samples[min(i, len(self.samples) - 1)]]
        return statistics.median(near) / REFERENCE_S
