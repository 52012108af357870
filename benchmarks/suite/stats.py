"""Order statistics used by the suite: nearest-rank percentiles and spread.

Nearest rank on purpose: every reported latency is a latency some
statement actually had, never an interpolation between two modes of a
multi-modal distribution.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the "tail" is a handful of outliers, not a rank.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q`` percentile of an ascending sequence.

    Returns ``None`` when fewer than ``min_beyond`` samples lie strictly
    beyond the chosen rank (the sample does not support that percentile).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {q}")
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (rank ceil(n/2)); no support guard."""
    return percentile(sorted(values), 0.50, 0)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles(n=4)`` gives them."""
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (run-to-run spread)."""
    q1, _, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
