"""Machine-speed probe, sampled while the untraced benchmark measures.

On a shared host the speed available to one process swings by up to 2x
over seconds to minutes, so measured times of the same work differ by
10-30% between runs a few minutes apart.  While armed, the probe interrupts
the process every ``INTERVAL_S`` (``SIGALRM``) and times a fixed pure-Python
kernel of small ``Fraction`` arithmetic and dict stores, the same kind of
work trilag does.  The mean kernel duration around an operation measures how
slow the machine was while it ran; ``factor`` turns measured seconds into
seconds at the reference speed, where the kernel takes ``REFERENCE_S``.

The time spent inside the probe is counted in ``wall_total`` and
``cpu_total`` so that callers can subtract it from what they measured.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# how far around an operation samples still describe its speed
WINDOW_S = 0.05
REFERENCE_S = 0.001


def kernel() -> Fraction:
    total = Fraction(0)
    seen = {}
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 11 + 3) * Fraction(i, 97)
        seen[(i, i % 5)] = total
    return total


class Probe:
    """Samples the kernel's duration while armed, as a context manager."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # start of each sample, ascending
        self.durations: list[float] = []
        self.wall_total = 0.0
        self.cpu_total = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample would nest inside it
            return
        self._busy = True
        # With the collector off, a collection of trilag's heap that the
        # kernel's allocations would trigger falls in program time instead.
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self._busy = False
        self.stamps.append(t0)
        self.durations.append(dt)
        self.wall_total += dt
        self.cpu_total += time.process_time() - c0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = -math.inf, stop: float = math.inf) -> float:
        """Reference seconds per measured second around ``start``..``stop``.

        Uses the samples begun within ``WINDOW_S`` of that interval, every
        sample when there are none, and 1 when nothing was sampled at all.
        """
        i = bisect.bisect_left(self.stamps, start - WINDOW_S)
        j = bisect.bisect_right(self.stamps, stop + WINDOW_S)
        samples = self.durations[i:j] or self.durations
        if not samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(samples)
