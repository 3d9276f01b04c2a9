"""Lemma 3.1: corner-point lower bounds on concave impurity over buckets.

Every attribute value x determines a *stamp point* — the vector of
per-class counts of tuples with ``X <= x``.  Because the weighted impurity
is concave in the stamp point, its minimum over all stamp points between
two bucket-boundary stamp points ``s_lo <= s_hi`` (componentwise) is
bounded below by its minimum over the ``2^k`` corner points of the
hyper-rectangle they span (Mangasarian [Man94], as applied in the paper).

The failure check compares these bucket lower bounds against the best
impurity ``i'`` found inside the confidence interval: a bucket whose
bound beats ``i'`` *might* contain the true split point, so the coarse
criterion cannot be trusted and the subtree is rebuilt.
"""

from __future__ import annotations

import functools

import numpy as np

from ..exceptions import SplitSelectionError
from ..splits.impurity import ImpurityMeasure

#: Guard: 2^k corner enumeration is exponential in the class count.
MAX_CLASSES_FOR_BOUND = 16


@functools.lru_cache(maxsize=None)
def _selectors(k: int) -> np.ndarray:
    """(2^k, k) booleans: corner c takes the upper stamp in class j iff bit j of c."""
    if k > MAX_CLASSES_FOR_BOUND:
        raise SplitSelectionError(
            f"corner bound limited to {MAX_CLASSES_FOR_BOUND} classes, got {k}"
        )
    table = ((np.arange(1 << k)[:, np.newaxis] >> np.arange(k)) & 1).astype(bool)
    table.flags.writeable = False
    return table


def corner_points(stamp_lo: np.ndarray, stamp_hi: np.ndarray) -> np.ndarray:
    """The 2^k corners of the hyper-rectangle spanned by two stamp points."""
    return np.where(_selectors(len(stamp_lo)), stamp_hi, stamp_lo)


def bucket_lower_bound(
    stamp_lo: np.ndarray,
    stamp_hi: np.ndarray,
    total_counts: np.ndarray,
    impurity: ImpurityMeasure,
) -> float:
    """Lower bound on weighted impurity over one bucket's stamp points."""
    corners = corner_points(
        np.asarray(stamp_lo, dtype=np.int64), np.asarray(stamp_hi, dtype=np.int64)
    )
    return float(impurity.weighted(corners, total_counts).min())


def bucket_lower_bounds(
    bucket_counts: np.ndarray,
    total_counts: np.ndarray,
    impurity: ImpurityMeasure,
) -> np.ndarray:
    """Lower bounds for every bucket of one attribute's discretization.

    All ``(m+1) * 2^k`` corners are built in one broadcast, bucket by
    bucket in :func:`corner_points` order, and evaluated in one
    ``impurity.weighted`` call — the same values a per-bucket loop gives.

    Args:
        bucket_counts: (m+1, k) per-bucket class counts (m edges make m+1
            buckets).
        total_counts: (k,) family class counts.  May exceed the bucket
            column sums only if callers pass partial counts — normally they
            are equal.
        impurity: the concave measure.

    Returns:
        (m+1,) float64 array of per-bucket lower bounds.
    """
    bucket_counts = np.asarray(bucket_counts, dtype=np.int64)
    n_buckets, k = bucket_counts.shape
    stamps_hi = np.cumsum(bucket_counts, axis=0)  # stamp points at bucket upper edges
    stamps_lo = stamps_hi - bucket_counts
    corners = np.where(
        _selectors(k), stamps_hi[:, np.newaxis, :], stamps_lo[:, np.newaxis, :]
    )  # (m+1, 2^k, k)
    values = impurity.weighted(corners.reshape(-1, k), total_counts)
    return values.reshape(n_buckets, -1).min(axis=1)


def admissible_bucket_mask(
    bucket_counts: np.ndarray, min_samples_leaf: int
) -> np.ndarray:
    """Buckets that could contain an *admissible* candidate split.

    A candidate in bucket j has a left-side size between the cumulative
    totals at the bucket's lower and upper edges; if even the largest
    possible left side is below ``min_samples_leaf`` (or the smallest
    possible right side is), no candidate in the bucket is admissible and
    the bucket can be excluded from the failure check without risking
    correctness.
    """
    totals = np.asarray(bucket_counts, dtype=np.int64).sum(axis=1)
    cum_hi = np.cumsum(totals)
    n = int(cum_hi[-1]) if len(cum_hi) else 0
    cum_lo = np.concatenate([[0], cum_hi[:-1]])
    # A candidate in bucket j has left size in [cum_lo[j] + 1, cum_hi[j]];
    # the bucket is excludable only if no integer in that range admits both
    # children (empty buckets have no candidates at all).
    return (
        (totals > 0)
        & (cum_hi >= min_samples_leaf)
        & (n - cum_lo - 1 >= min_samples_leaf)
    )
