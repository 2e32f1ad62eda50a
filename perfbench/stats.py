"""Summary statistics shared by run.py and its tests."""

import math
import statistics


def quartile_spread(values):
    """(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)
    gives them: how far apart the middle half of repeated runs lies."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile(samples, q):
    """The q-quantile (0 < q < 1) by linear interpolation between order
    statistics, plus how many samples lie strictly beyond it."""
    if not samples:
        raise ValueError("percentile of no samples")
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    value = s[lo] + (s[hi] - s[lo]) * (pos - lo)
    beyond = sum(1 for x in s if x > value)
    return value, beyond


def samples_needed(q, beyond=10):
    """Smallest sample count that leaves at least `beyond` samples above
    the q-quantile when the samples are distinct."""
    n = beyond
    while percentile(list(range(n)), q)[1] < beyond:
        n += 1
    return n
