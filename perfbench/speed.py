"""The machine's current speed, sampled on a timer while ops run.

On a shared machine a neighbour can slow this core by up to half, for
seconds or for minutes.  While a ``Speed`` is entered, a timer signal
every ``SAMPLE_EVERY_S`` times a fixed pure-Python ``Fraction`` kernel,
which uses nothing of the package; a sample is the median of three
runs, which drops the millisecond jitter and keeps the slow stretches.
The sampling time is taken out of the op it interrupted, and the rest is
scaled by ``REFERENCE_S`` over the mean kernel time of the samples
during the op and next to it, so times read as on a machine where the
kernel takes ``REFERENCE_S``.  A change to the package moves the op
times and not the kernel, so it shows in full.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

SAMPLE_EVERY_S = 0.2
# about the kernel's time on an idle core of the 2-vCPU Intel Xeon VM the
# benchmark was tuned on; it only sets the scale of the reported times
REFERENCE_S = 0.0045


def kernel():
    """Rational arithmetic and dict updates, like the package's inner loops."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 650):
        acc += Fraction(i % 89 + 1, i % 97 + 2) * Fraction(3, i % 7 + 1)
        seen[i % 61] = acc.numerator % 1009
    return acc


class Speed:
    """Timer-driven kernel samples, and op times scaled by them."""

    def __init__(self):
        self.at = []  # when each sample started
        self.spent = []  # how long it took, all three runs
        self.took = []  # its median kernel time
        self._handler = None

    def sample(self, *_):
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self.at.append(start)
        self.took.append(sorted(runs)[1])
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scale(self, start, seconds):
        """An interval measured inside this context, at reference speed."""
        first = bisect_right(self.at, start)  # first sample after start
        last = bisect_left(self.at, start + seconds)  # first one after end
        net = seconds - sum(self.spent[first:last])
        around = self.took[first - 1:last + 1]
        return net * REFERENCE_S * len(around) / sum(around)
