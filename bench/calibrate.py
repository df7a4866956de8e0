"""Host-speed calibration, so that runs made at different times compare.

The benchmark runs on shared virtual machines whose speed moves a lot: on
the 2-core VM it was built on, the kernel below took anywhere from 0.6 to
1.1 times its median CPU time over one-second stretches, and differently
on each core.  Timing CPU time rather than wall time already leaves out
the time the host takes the CPU away (steal time); the drift of the CPU's
own speed is left.  So a run also times a fixed kernel that does the same
kind of work as the program (exact `Fraction` products and sums, as in a
truncated series product) and depends on nothing in `hilbclass`.  The
kernel runs every INTERVAL_S throughout the run, inside requests too, and
every time the benchmark reports is scaled by the samples taken during it
and right before and after it:

    REFERENCE_S / mean(CPU times of those samples)

which gives the time the work would take on a host where the kernel takes
REFERENCE_S: the reported seconds are CPU seconds at a fixed reference
speed.  A change to the program moves the request times but not the
kernel, so it shows in full; a slow phase of the host moves both, and
cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Kernel size: about 11 ms a sample on the reference host.
KERNEL_TERMS = 60

# The kernel's median CPU time on the reference host: a 2-core x86 VM at
# 2.1 GHz with Python 3.11, in a quiet phase.  Scaled figures equal CPU
# figures there.
REFERENCE_S = 0.0105

# A run samples the kernel this often, in wall seconds.
INTERVAL_S = 0.2


def kernel(n: int = KERNEL_TERMS) -> list[Fraction]:
    """The first n coefficients of the product of two fixed series."""
    a = [Fraction(k + 1, 2 * k + 3) for k in range(n)]
    b = [Fraction((-1) ** k, k + 2) for k in range(n)]
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def sample() -> float:
    """CPU time of one run of the kernel."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def scale(samples) -> float:
    """Factor that turns CPU seconds into reference seconds, from the kernel
    samples over and around a timing."""
    return REFERENCE_S / statistics.fmean(samples)


class Calibrator:
    """Runs the kernel every `interval` seconds of wall time from a timer
    signal.  The handler runs in the main thread between bytecodes, so
    samples fall inside long requests as well as between requests; the
    time they take inside a request is taken out of its timing.  Used as a
    context manager, it also samples on entry and on exit, so every timing
    made inside has a sample on either side."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []  # process CPU clock at each sample's start
        self.samples: list[float] = []  # CPU time of each sample
        self.walls: list[float] = []  # wall time of each sample
        self.busy = False

    def take(self, *_signal) -> None:
        if self.busy:  # a sample that overran the interval
            return
        self.busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.samples.append(time.process_time() - c0)
        self.walls.append(time.perf_counter() - w0)
        self.starts.append(c0)
        self.busy = False

    def __enter__(self):
        self.take()
        self.previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.take()

    def window(self, cpu_start: float, cpu_end: float) -> tuple[float, float, float]:
        """For a timing from cpu_start to cpu_end on the process CPU clock:
        the CPU and wall time of the samples inside it, and its scale factor
        from those samples and the nearest one on either side.  A sample
        runs whole between two bytecodes, so it lies wholly inside a timing
        or wholly outside."""
        lo = bisect.bisect_right(self.starts, cpu_start) - 1
        hi = bisect.bisect_left(self.starts, cpu_end)
        inside = slice(lo + 1, hi)
        return (sum(self.samples[inside]), sum(self.walls[inside]),
                scale(self.samples[lo:hi + 1]))
