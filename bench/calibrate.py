"""Reference kernel that tracks the machine's speed during a run.

The benchmark runs on shared machines whose speed swings by half or more
from one second to the next, and CPU time swings with wall time, so neither
alone compares two runs.  A run therefore times this fixed kernel right
before and right after each set-up and each pass, and divides the section's
time by the mean of the two: a metric in seconds becomes seconds at the
speed at which the kernel takes ``NOMINAL_S``.  Medians over the sections
then follow the program, not the machine's passing state.

The kernel mixes what the program spends its time on (interpreted loops over
tuples and dicts, small matrix products, and scipy's ``logsumexp`` on short
rows), so a slower or faster machine moves both alike.  It uses numpy and
scipy only, never ``adsm``, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import logsumexp

NOMINAL_S = 0.02     # reference-kernel time that the time metrics are scaled to

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((48, 48)) / 7.0
_X = _RNG.standard_normal((16, 48))
_ROWS = _RNG.standard_normal((160, 12))


def kernel() -> float:
    """One fixed unit of mixed interpreter and numpy work."""
    h = _X
    total = 0.0
    for _ in range(30):
        h = np.tanh(h @ _W)
        total += float(logsumexp(h[:, :12], axis=1).sum())
    for row in _ROWS:
        total += float(logsumexp(row))
    counts: dict[tuple, int] = {}
    for i in range(7500):
        key = (i % 31, i % 7 == 0)
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


def reference(seconds: float = 0.0) -> float:
    """Mean time of the kernel over at least three runs and about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time measured between two reference timings, in seconds at the speed
    at which the kernel takes ``NOMINAL_S``."""
    return seconds * 2 * NOMINAL_S / (before + after)
