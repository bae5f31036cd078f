"""Machine-speed sampling, to turn wall time into time at a nominal speed.

The benchmark runs on shared machines whose speed for one thread swings by up
to twice within seconds (measured on a 2-vCPU VM: a fixed rewriter
pretraining took 1.3 s to 2.4 s, with no CPU steal recorded and CPU time
equal to wall time). A run cannot choose its neighbours, so it measures the
machine instead: an interval timer interrupts the process every INTERVAL_S
and times a fixed slice of work shaped like riff's inner loop (small numpy
matrix-vector products and tanh, driven from Python). The slice is the
benchmark's own code, so no change to riff can alter it.

    scaled seconds = (wall seconds - slice seconds) * NOMINAL_SLICE_S * mean(1 / slice)

The mean of 1/slice over slices taken at even intervals estimates the
average speed over the interval, so a scaled time is the time the same work
takes at the speed where one slice takes NOMINAL_SLICE_S. On the VM above,
six fine-tunings of identical work varied by 7.0 % (coefficient of
variation) in wall time and by 0.7 % in scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

import numpy as np

INTERVAL_S = 0.0125
SLICE_ITERATIONS = 40
# Typical slice time on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.
NOMINAL_SLICE_S = 1.4e-4
_MATRIX = np.random.default_rng(0).normal(0.0, 0.3, (24, 24))


def reference_slice() -> float:
    v = np.ones(24)
    acc = 0.0
    for i in range(SLICE_ITERATIONS):
        v = np.tanh(_MATRIX @ v)
        acc += float(v[i % 24])
    return acc


class SpeedSampler:
    """Times a reference slice on every SIGALRM tick while started."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_slice()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, begin: float, end: float) -> float:
        """Seconds the work done in [begin, end] takes at the nominal speed.
        An interval too short to hold a slice borrows the nearest ones."""
        inside = [d for s, d in zip(self.starts, self.durations) if begin <= s < end]
        work = (end - begin) - sum(inside)
        if len(inside) < 4:
            nearest = sorted(zip(self.starts, self.durations), key=lambda sd: abs(sd[0] - begin))
            inside = [d for _, d in nearest[:4]]
        if not inside:
            raise RuntimeError("no speed samples were taken")
        return work * NOMINAL_SLICE_S * statistics.fmean(1.0 / d for d in inside)
