"""Frozen calibration kernel and the sampler that interleaves it with the work.

The host this benchmark was written on changes speed by tens of percent
between processes and within one process from second to second.  Every
timed operation is therefore divided by the time of a fixed stdlib-only
kernel measured next to it, which gives `verdict_cal` in calibration
units.

FROZEN: `kernel` defines the unit of `verdict_cal`.  Any edit to it, to
`KERNEL_ROUNDS` or to `KERNEL_REFERENCE_S` changes every calibrated number,
so results from before and after such an edit are not comparable.
"""

from __future__ import annotations

import heapq
import signal
import time
from fractions import Fraction

clock = time.perf_counter

KERNEL_ROUNDS = 400
# Kernel time in seconds measured on the reference host (2-core VM, Python
# 3.11.7) when the kernel was frozen.  Calibrated set-up time is multiplied
# by this fixed scale to read in seconds; it is not a live measurement.
KERNEL_REFERENCE_S = 0.0033
# Seconds between timer-driven kernel samples.
SAMPLE_PERIOD_S = 0.1


def kernel() -> int:
    """A fixed mix of Fraction, dict, tuple and heap operations.

    It mirrors the operations qpalg spends its time on (exact rational
    arithmetic, word tuples, term dictionaries, heaps of words) and uses
    nothing from qpalg.
    """
    acc = Fraction(0)
    terms: dict = {}
    heap: list = []
    for i in range(1, KERNEL_ROUNDS):
        w = (i % 7, i % 5, i % 3, i % 11)
        f = Fraction(i % 13 - 6, i % 17 + 1)
        acc += f * f
        k = w + w[:2]
        terms[k] = terms.get(k, Fraction(0)) + f
        heapq.heappush(heap, ((-len(k), k), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(terms) + acc.denominator % 7


class Sampler:
    """Runs the kernel every SAMPLE_PERIOD_S seconds from a SIGALRM handler.

    Work timed through `measure` excludes the time the handler spent, and
    is divided by the mean of the kernel samples taken from right before it
    to right after it, so slow phases of the host count against both.
    """

    def __init__(self):
        self.samples: list[float] = []      # kernel seconds, in the order taken
        self.in_handler = 0.0
        self._busy = False

    def _sample(self) -> float:
        self._busy = True               # a timer tick during a sample is dropped
        start = clock()
        kernel()
        dt = clock() - start
        self.samples.append(dt)
        self._busy = False
        return dt

    def _handler(self, signum, frame):
        if not self._busy:
            self.in_handler += self._sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, bracket: int = 1):
        """Run fn; return (result, seconds, calibration units).

        `bracket` kernel samples run right before and right after fn, so
        that even work shorter than a sampling period has samples next to it.
        """
        first = len(self.samples)
        for _ in range(bracket):
            self._sample()
        before = self.in_handler
        start = clock()
        result = fn()
        seconds = clock() - start - (self.in_handler - before)
        for _ in range(bracket):
            self._sample()
        near = self.samples[first:]
        return result, seconds, seconds / (sum(near) / len(near))
