"""Machine-speed calibration, so that timings compare across runs.

The host this benchmark runs on shares its cores: the same Python work
runs up to 60% slower for a second or more at a time, and CPU time moves
with wall time, so the slowdown is not time spent descheduled.  A fixed
kernel of the same kind of work loggeom does (dict-of-tuples polynomial
products with ints, Fraction arithmetic, integer row operations) is timed
between tasks, at most every ``EVERY_S``.  After the run, every compute
time is rescaled to a machine on which the kernel takes ``REFERENCE_S``:

    scaled seconds = measured seconds * REFERENCE_S / kernel seconds then

where "kernel seconds then" is the median of the ``WIDTH`` samples on
each side of the task's midpoint.  The speed drifts within tenths of a
second, so the nearest sample on each side (the one just before the task
and the one just after it) tracks it best; a window over past samples
only, or a wider one, left two to three times the run-to-run spread.
Only compute is rescaled; a deadline wait is wall-clock time and stays
as it is.  ``REFERENCE_S`` is a fixed constant of the benchmark: change
it and every reported time changes with it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
EVERY_S = 0.02
WIDTH = 1

_POLY = {(i, j, (i * j) % 3): (i * 7 + j * 3) % 11 - 5 for i in range(6) for j in range(6)}
_FRACS = [Fraction(i + 1, j + 2) for i in range(3) for j in range(3)]
_MATRIX = [[(i * 5 + j * 3) % 7 - 3 for j in range(8)] for i in range(8)]


def kernel() -> int:
    acc: dict = {}
    for e1, c1 in _POLY.items():
        for e2, c2 in _POLY.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc[e] = acc.get(e, 0) + c1 * c2
    q = Fraction(0)
    for c1 in _FRACS:
        for c2 in _FRACS:
            q += c1 * c2 - c2
    for _ in range(4):
        m = [row[:] for row in _MATRIX]
        for t in range(8):
            piv = m[t][t] or 1
            for i in range(8):
                if i != t:
                    f = m[i][t] // piv
                    m[i] = [a - f * b for a, b in zip(m[i], m[t])]
    return len(acc) + q.denominator + m[7][7]


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measure(samples: int = 5) -> float:
    """Median kernel time now, in seconds."""
    return statistics.median(time_kernel() for _ in range(samples))


class Sampler:
    """Kernel samples ``(when, seconds)``, at most one every EVERY_S."""

    def __init__(self):
        self.due = 0.0

    def sample(self) -> list[tuple[float, float]]:
        now = time.perf_counter()
        if now < self.due:
            return []
        self.due = now + EVERY_S
        return [(now, time_kernel())]


def scale(kernel_s: float) -> float:
    """Factor that turns seconds measured now into reference seconds."""
    return REFERENCE_S / kernel_s


def factors(samples, spans) -> list[float]:
    """Scale factor for each ``(start, end)`` span, from the samples around it.

    ``samples`` are ``(when, seconds)`` pairs on the same monotonic clock
    as the spans (``time.perf_counter`` is system-wide on Linux).
    """
    samples = sorted(samples)
    when = [t for t, _ in samples]
    out = []
    for start, end in spans:
        i = bisect.bisect_left(when, (start + end) / 2)
        window = [s for _, s in samples[max(0, i - WIDTH):i + WIDTH]]
        out.append(scale(statistics.median(window)) if window else 1.0)
    return out
