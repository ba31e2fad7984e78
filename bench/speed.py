"""How fast the host runs Python at the moment, from a fixed calibration.

A shared host runs the same Python code up to 1.7 times slower from one
second to the next (other tenants; user and system time alike), and a
job's wall time moves with it.  The benchmark therefore times a fixed piece
of its own pure-Python work (word products, canonical forms and a Bareiss
determinant from ``oracle``, which shares no code with ``acpair`` and never
changes with it) at short intervals between jobs, and scales each job's
time by REFERENCE_S / (the mean of the calibrations just before and just
after it).  Reported times are thus seconds at the speed where one
calibration takes REFERENCE_S, a typical speed of a 2 vCPU Xeon under
Python 3.11; the wall times go into the run's record.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import oracle

REFERENCE_S = 0.0125  # seconds of one calibration at the reference speed
EVERY_S = 0.2  # least wall time from one calibration to the next in a round


def _words(rng, count: int) -> list:
    letters = (1, -1, 2, -2, 3, -3)
    return [tuple(rng.choice(letters) for _ in range(rng.randint(20, 50)))
            for _ in range(count)]


class Speed:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self):
        rng = random.Random(0)
        self._words = _words(rng, 90)
        self._matrix = [[rng.randint(-5, 5) for _ in range(26)] for _ in range(26)]
        self.samples = []
        self._last = -math.inf

    def calibrate(self) -> None:
        start = time.perf_counter()
        for a, b in zip(self._words, self._words[1:]):
            oracle.canonical(oracle.multiply(a, oracle.invert(b), a))
        oracle.determinant(self._matrix)
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY_S

    def scale(self, k: int) -> float:
        """Factor from wall seconds to reference seconds for work done
        between samples k and k + 1."""
        return REFERENCE_S / statistics.fmean(self.samples[k:k + 2])

    def median(self) -> float:
        return statistics.median(self.samples)
