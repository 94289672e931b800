"""Host-speed reference for the benchmark's op timings.

On a shared virtual machine a vCPU switches between a fast and a slow speed,
about 1.7x apart, on scales from milliseconds to minutes, with no steal time
or load visible inside the machine.  A slow spell lengthens every op in it,
and a fixed reference kernel timed between the ops lengthens with it.  So
the op times the benchmark reports are rescaled to a fixed host speed,

    reported = measured * REF_S / (reference kernel time around it),

which is the time the op would take on a host where the kernel takes REF_S.
The kernel time around an op is the mean of the kernel timings taken within
WINDOW_S of it: the two that bracket a long op, and a dozen or more around a
short one.  An op runs at a mix of the two speeds, which the mean of nearby
timings estimates better than their median or the bracketing pair alone.

The kernel is the benchmark's own code, not the program's, so a change to
the program moves the reported times as much as the wall times.  The raw
wall times and kernel timings are kept in the result record next to them.
Set-up time is not rescaled: starting an interpreter does not slow down
with the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the reference host: 2 vCPUs of an Intel Xeon at
# 2.0 GHz nominal, Python 3.11, numpy 2.4, at its fastest (uncontended) speed.
REF_S = 0.003
WINDOW_S = 1.0

_X = np.linspace(0.0, 1.0, 8)


def kernel_s() -> float:
    """Shortest wall time of three back-to-back runs of the reference
    kernel: small numpy calls and scalar Python arithmetic, the mix the
    program spends its time in.  The shortest run drops the cold caches that
    follow an op."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(250):
            s += float(np.polyval(_X, 0.5 + 1e-3 * i)) + sum(k * k for k in range(40))
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Kernel timings taken between measurements, and the rescaling they give."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, kernel_s)

    def sample(self) -> None:
        kernel = kernel_s()
        self.samples.append((time.perf_counter(), kernel))

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured from ``start`` to ``end`` (perf_counter),
        at the reference speed.  Sample before and after the measurement."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return seconds * REF_S / statistics.fmean(near)
