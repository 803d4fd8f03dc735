"""The statistics the benchmark reports, each defined once.

Percentiles are nearest-rank on the sorted sample, so a reported value
is always one that was measured.  The tail rule follows the
choosing-metrics guide: report the highest percentile that still has at
least ten samples beyond it.
"""

from __future__ import annotations

import math

__all__ = ["percentile", "median", "tail_percentile"]

TAIL_CANDIDATES = (99, 95, 90, 75)
MIN_SAMPLES_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50)


def tail_percentile(count: int) -> int:
    """The highest of p75/p90/p95/p99 with >= 10 samples beyond its rank.

    A sample too small for any of them (fewer than 40 values) falls back
    to p75, the lowest rung, so the metric is always emitted; the sample
    count is printed beside it.
    """
    for p in TAIL_CANDIDATES:
        if count - math.ceil(p * count / 100) >= MIN_SAMPLES_BEYOND:
            return p
    return TAIL_CANDIDATES[-1]
