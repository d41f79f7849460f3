"""Host-speed calibration of the benchmark's times.

On a small shared host the speed of a vCPU changes all the time, for every
program on it alike: a fixed computation takes 1x or 2x its best time from
one second to the next, and the share of slow seconds drifts over minutes.
Medians within a run cannot remove that, so two runs of the same code
minutes apart differ by the host's drift. The benchmark therefore also
times a fixed reference computation that does not use splinecol, between
the timed calls, and reports times in calibrated seconds:

    calibrated = measured * REFERENCE_S / mean(reference times of the pass)

that is, the time the same work would take on a host where the reference
runs in ``REFERENCE_S``. The mean is geometric: timed work slows with the
share of slow seconds, which the mean follows and a median does not, and
the geometric one gives a single stalled sample less weight. The reference mixes the kinds of work splinecol
does on one core (a Python loop over a dict, many small numpy calls, one
small LAPACK solve). The measured seconds and each pass's scale are kept
in the result file.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: About the time of one ``reference_work`` call on an unloaded 2-vCPU VM;
#: it only fixes the unit of calibrated seconds.
REFERENCE_S = 0.010
#: Reference calls timed at each sampling point.
CALLS_PER_SAMPLE = 2
#: The host's speed changes over about a second, so it is sampled at call
#: boundaries, but not more often than this.
MIN_INTERVAL_S = 0.3

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((160, 160)) + 160 * np.eye(160)
_RHS = _RNG.random((160, 8))
_SMALL = _RNG.random((24, 24))


def reference_work():
    table = {}
    for i in range(40_000):
        key = i % 509
        table[key] = table.get(key, 0.0) + i * 0.5
    for _ in range(400):
        (np.sin(_SMALL) @ _SMALL).sum(axis=0)
    np.linalg.solve(_MATRIX, _RHS)


class HostSpeed:
    """Reference times sampled at call boundaries throughout a pass or set-up."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self, force=False):
        """Time ``CALLS_PER_SAMPLE`` reference calls, unless one was just taken."""
        if not force and time.perf_counter() - self._last < MIN_INTERVAL_S:
            return
        for _ in range(CALLS_PER_SAMPLE):
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor that turns measured seconds into calibrated seconds."""
        return REFERENCE_S / statistics.geometric_mean(self.samples)
