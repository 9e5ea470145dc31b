"""Order statistics for the benchmark's reports.

A percentile is reported only when the sample supports it: at least
MIN_BEYOND samples must lie above it. With fewer, the value would be
just the slowest few operations, not a tail.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile of values, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0 or not 0 < p < 100:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def tail(values):
    """(p, value) for the highest whole percentile in (50, 99] the
    sample supports; (50, median) when it supports none above the
    median."""
    for p in range(99, 50, -1):
        v = percentile(values, p)
        if v is not None:
            return p, v
    return 50, statistics.median(values)
