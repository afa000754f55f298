"""Order statistics for the benchmark's metrics."""

import math
import statistics

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


def median(values):
    return statistics.median(values)


def percentile(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile (0 < p < 100) of `values`, by linear
    interpolation between closest ranks, or None unless at least
    `min_beyond` samples lie strictly above it."""
    if not values:
        return None
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    v = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    if sum(1 for x in xs if x > v) < min_beyond:
        return None
    return v


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))

