"""Host-speed calibration for the benchmark's timings.

On a shared machine the same code can run 1.5-2x slower for seconds to
minutes at a time, when other tenants load the host.  While ops run, a
SIGALRM interval timer runs a fixed calibration kernel every PERIOD_S
seconds and records how long it took.  An interval's *calibrated* time is
its wall time minus the kernel's own time inside it, scaled by
REF_KERNEL_S / (mean kernel time around it): the seconds the interval would
have taken with the kernel at its reference speed.  The kernel is the
benchmark's own code, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
WINDOW_S = 0.25       # kernel samples this close to an interval calibrate it
MIN_SAMPLES = 5
# Kernel times on an idle core of the machine the benchmark was defined on
# (2-vCPU Intel Xeon at 2.1 GHz): run from the timer while the package works,
# and back to back.  They fix the unit: calibrated seconds read about as wall
# seconds there.
REF_KERNEL_S = 4.0e-4
REF_BURST_S = 3.3e-4

_XS = np.linspace(0.0, 1.0, 64)
_PHASE = -1j * np.subtract.outer(np.arange(3.0), np.arange(3.0))
_DECAY = np.ones((3, 3))


def kernel():
    """Fixed work in the package's own mix: 3x3 complex array updates as in
    the RK4 loop, small complex array math with `%.12g` formatting as in the
    CSV writers, and scalar float math as in the quadrature callbacks."""
    rho = np.eye(3, dtype=complex) / 3.0
    for _ in range(25):
        d = _PHASE * rho - 0.025 * _DECAY * rho
        d[0, 0] += 0.05 * rho[1, 1]
        rho = rho + 0.001 * d
    rows = []
    for i in range(20):
        y = np.exp(-1j * _XS * i) * 0.5
        rows.append(",".join(f"{v:.12g}" for v in np.abs(y[:4]) ** 2))
    acc = 0.0
    for i in range(400):
        acc += math.sin(i * 0.1) / (1.0 + i * i)
    return rho, rows, acc


class SpeedSampler:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the wall interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.ends[i] - self.starts[i] for i in range(lo, hi)
                  if self.ends[i] <= t1)
        window = WINDOW_S
        while True:
            a = bisect.bisect_left(self.starts, t0 - window)
            b = bisect.bisect_left(self.starts, t1 + window)
            if b - a >= MIN_SAMPLES or (a == 0 and b == len(self.starts)):
                break
            window *= 2
        if b == a:
            raise RuntimeError("no calibration samples were taken")
        durations = [self.ends[i] - self.starts[i] for i in range(a, b)]
        return (t1 - t0 - own) * REF_KERNEL_S / statistics.fmean(durations)


def burst(n: int = 50) -> float:
    """Mean kernel time over n back-to-back runs, outside any sampler."""
    start = time.perf_counter()
    for _ in range(n):
        kernel()
    return (time.perf_counter() - start) / n


def calibrated_call(fn) -> float:
    """Calibrated seconds of fn(), for calls too short to sample, such as a
    child process: the kernel's speed is measured just before and after."""
    before = burst()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    return wall * REF_BURST_S * 2.0 / (before + burst())
