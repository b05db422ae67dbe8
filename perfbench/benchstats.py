"""Percentiles under the benchmark's sample-count rule.

A timing is reported as its median plus tail percentiles, and a tail
percentile only when at least :data:`MIN_BEYOND` samples lie beyond it;
the benchmark sizes its phases so the percentiles it gates qualify.
Percentiles use the nearest-rank definition, so a reported value is
always a measured one.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile of *n* samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def nearest_rank(values, q: float) -> float:
    """The *q*-th percentile (0 < q <= 100) by nearest rank."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - _rank(n, q)


def reportable(n: int, q: float) -> bool:
    """Whether the *q*-th percentile of *n* samples may be reported."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def percentile_or_none(values, q: float):
    """``nearest_rank(values, q)`` when the rule allows it, else ``None``."""
    return nearest_rank(values, q) if reportable(len(values), q) else None


def median(values) -> float:
    return statistics.median(values)
