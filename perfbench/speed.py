"""Machine speed, for scaling the benchmark's times to a reference speed.

On a shared host the speed of the same single-threaded code drifts by up to
half within seconds, and CPU time drifts with wall time, so neither wall nor
CPU time of a job repeats from one run to the next.  A fixed pure-Python
kernel, the benchmark's own code, is timed before and after every job and,
from a ``SIGALRM`` handler, every ``PROBE_INTERVAL_S`` inside it.  A job's
scaled time is its time without the probes, times the mean speed the probes
saw, where speed is ``REF_KERNEL_S`` over the kernel's time.  A scaled second
is a second on a machine where the kernel takes ``REF_KERNEL_S``.  A change to
``bipencil`` does not move the kernel.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The kernel's best time on the 2-core x86-64 host used for the baseline.
REF_KERNEL_S = 0.8e-3
PROBE_INTERVAL_S = 0.05


def _ref_kernel():
    """Fraction-free elimination of a fixed 9x9 integer matrix and a Fraction sum.

    Big-integer and Fraction arithmetic in Python loops, as in the program's
    exact kernels, in about a millisecond.
    """
    n = 9
    M = [[(i * 7 + j * 13 + i * j * 3) % 17 - 8 + (i == j) * 20 for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    return M[-1][-1], s


class Meter:
    """Context manager that probes the speed periodically while it is open."""

    def __init__(self):
        self.probes = []          # (start, seconds) of each kernel run
        self._old_handler = None

    def probe(self, *_):
        start = time.perf_counter()
        _ref_kernel()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def measure(self, fn, *args):
        """Call ``fn(*args)``; returns (result, seconds, seconds without probes, scaled seconds)."""
        self.probe()
        first = len(self.probes) - 1
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        # A handler runs to its end before the caller goes on, so every probe
        # that started in [start, start + seconds] lies wholly inside it.
        inside = sum(s for t, s in self.probes[first + 1:] if t >= start)
        self.probe()
        speed = statistics.fmean(REF_KERNEL_S / s for _, s in self.probes[first:])
        net = seconds - inside
        return result, seconds, net, net * speed
