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


@functools.lru_cache(maxsize=None)
def _corner_columns(k: int) -> np.ndarray:
    """(2^k * k,) column of ``[stamps_lo | stamps_hi]`` that each corner
    coordinate takes, corner after corner in :func:`corner_points` order."""
    table = (_selectors(k) * k + np.arange(k)).reshape(-1)
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


def _segment_sizes(n_rows: int, starts: np.ndarray | None) -> np.ndarray:
    """Rows per segment of a stacked array whose segments begin at ``starts``.

    ``starts=None`` is one segment of all ``n_rows`` rows.
    """
    if starts is None:
        return np.array([n_rows])
    return np.append(starts[1:], n_rows) - starts


def _segment_stamps(
    bucket_counts: np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Stamp points at every bucket's upper edge, cumulated within its segment.

    ``bucket_counts`` stacks several attributes' (m_a+1, k) bucket counts;
    segment ``s`` runs from row ``starts[s]`` (``starts[0]`` is 0) to the
    next start.  One integer cumsum over the stack, minus each segment's
    base (the cumsum just before it), equals a cumsum per segment exactly.
    """
    cum = np.cumsum(bucket_counts, axis=0)
    if starts is None or len(starts) < 2:
        return cum
    base = cum[starts - 1]
    base[0] = 0
    return cum - np.repeat(base, _segment_sizes(len(cum), starts), axis=0)


def bucket_lower_bounds(
    bucket_counts: np.ndarray,
    total_counts: np.ndarray,
    impurity: ImpurityMeasure,
    starts: np.ndarray | None = None,
    exact: np.ndarray | None = None,
) -> np.ndarray:
    """Lower bounds for every bucket of one or more attributes' discretizations.

    All ``(m+1) * 2^k`` corners are built in one gather, bucket by
    bucket in :func:`corner_points` order, and evaluated in one
    ``impurity.weighted`` call — the same values a per-bucket loop gives,
    because the weighted impurity is row-local.  For the same reason a
    stack of several attributes (``starts``) gives each attribute's bounds
    bit for bit as a call of its own would.

    Args:
        bucket_counts: (m+1, k) per-bucket class counts (m edges make m+1
            buckets), or several attributes' counts stacked row-wise.
        total_counts: (k,) family class counts.  May exceed the bucket
            column sums only if callers pass partial counts — normally they
            are equal.
        impurity: the concave measure.
        starts: first row of each stacked attribute (None: one attribute).
        exact: buckets whose only possible candidate is their upper edge
            (point buckets).  Their "bound" is the exact impurity at that
            stamp point: the last corner, which takes the upper stamp in
            every class.

    Returns:
        (m+1,) float64 array of per-bucket lower bounds.
    """
    bucket_counts = np.asarray(bucket_counts, dtype=np.int64)
    n_buckets, k = bucket_counts.shape
    stamps_hi = _segment_stamps(bucket_counts, starts)  # stamps at bucket upper edges
    stamps_lo = stamps_hi - bucket_counts
    corners = np.concatenate([stamps_lo, stamps_hi], axis=1).take(
        _corner_columns(k), axis=1
    )  # (m+1, 2^k * k)
    values = impurity.weighted(corners.reshape(-1, k), total_counts)
    values = values.reshape(n_buckets, -1)
    bounds = values.min(axis=1)
    if exact is not None:
        bounds[exact] = values[exact, -1]
    return bounds


def admissible_bucket_mask(
    bucket_counts: np.ndarray,
    min_samples_leaf: int,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Buckets that could contain an *admissible* candidate split.

    A candidate in bucket j has a left-side size between the cumulative
    totals at the bucket's lower and upper edges; if even the largest
    possible left side is below ``min_samples_leaf`` (or the smallest
    possible right side is), no candidate in the bucket is admissible and
    the bucket can be excluded from the failure check without risking
    correctness.  ``starts`` stacks several attributes, as in
    :func:`bucket_lower_bounds`; each is judged within its own segment.
    """
    totals = np.asarray(bucket_counts, dtype=np.int64).sum(axis=1)
    cum_hi = _segment_stamps(totals, starts)
    sizes = _segment_sizes(len(cum_hi), starts)
    # Each row's family size: the cumulative total at its segment's end.
    n = np.repeat(cum_hi[np.cumsum(sizes) - 1], sizes) if len(cum_hi) else 0
    cum_lo = cum_hi - totals
    # A candidate in bucket j has left size in [cum_lo[j] + 1, cum_hi[j]];
    # the bucket is excludable only if no integer in that range admits both
    # children (empty buckets have no candidates at all).
    return (
        (totals > 0)
        & (cum_hi >= min_samples_leaf)
        & (n - cum_lo - 1 >= min_samples_leaf)
    )
