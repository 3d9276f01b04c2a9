"""Summary statistics shared by the workloads, the tracer and the tests.

Timings are reported as medians.  A tail is reported at the highest
percentile of :data:`TAIL_LEVELS` that still has at least
:data:`TAIL_MIN_BEYOND` samples beyond it, together with the level and the
sample count, so a tail is never read off fewer samples than it claims.
"""

from __future__ import annotations

import math
import statistics

#: Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported percentile.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(level: float, n: int) -> int:
    """1-based nearest rank of the ``level``-th percentile of ``n`` samples."""
    # The tolerance keeps float noise (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def nearest_rank(values, level: float) -> float:
    """The ``level``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(level, len(ordered)) - 1])


def tail_level(n: int) -> float | None:
    """Highest level of :data:`TAIL_LEVELS` with enough samples beyond it.

    ``None`` when even the median has fewer than :data:`TAIL_MIN_BEYOND`
    samples beyond it (fewer than 20 samples).
    """
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= TAIL_MIN_BEYOND:
            return level
    return None


def tail(values) -> tuple[float, str, int]:
    """``(value, label, n)``: the tail by the sample-count rule.

    With too few samples for any percentile the slowest sample is the
    tail, labelled ``"max"``.
    """
    values = list(values)
    level = tail_level(len(values))
    if level is None:
        return float(max(values)), "max", len(values)
    return nearest_rank(values, level), f"p{level:g}", len(values)
