"""Adaptive discretizations for the Lemma 3.1 failure check (§3.4).

At each skeleton node, every numerical predictor attribute gets a
discretization whose bucket boundaries come from the in-memory sample.
The paper's construction heuristic: put *many* boundaries where the
sample impurity profile is close to the node's estimated minimum (the
corner-point lower bound must be tight there to avoid false alarms) and
*few* where the impurity is clearly worse.

We realize this with a deterministic importance-quantile scheme: each
sample candidate value receives weight ``1 / (impurity - i_est + eps)``,
and bucket boundaries are placed at equal cumulative-weight steps.  Dense
weight (impurity near the minimum) therefore attracts boundaries.

Bucket semantics: for edges ``e_0 < e_1 < ... < e_{m-1}``, bucket 0 is
``(-inf, e_0]``, bucket j is ``(e_{j-1}, e_j]``, bucket m is
``(e_{m-1}, +inf)`` — matching ``np.searchsorted(edges, x, side="left")``.
"""

from __future__ import annotations

import numpy as np

from ..splits.numeric import NumericProfile


def bucket_index(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bucket index of each value under the edge semantics above."""
    return np.searchsorted(edges, values, side="left")


def build_discretization(
    profile: NumericProfile,
    estimated_minimum: float,
    bucket_budget: int,
    forced_edges: tuple[float, ...] = (),
    exclude_interval: tuple[float, float] | None = None,
) -> np.ndarray:
    """Bucket edges for one numeric attribute at one node.

    Args:
        profile: the sample impurity profile of the attribute.
        estimated_minimum: the node's estimated best impurity over all
            attributes (from the sample) — the reference point the lower
            bound will be compared against.
        bucket_budget: target number of edges.
        forced_edges: edges that must appear verbatim (the confidence
            interval boundaries of the node's own splitting attribute).
        exclude_interval: candidates inside this closed interval get no
            edges of their own — used for the node's splitting attribute,
            whose in-interval region is searched exactly from the held
            tuples; spending the budget there would starve the flanks the
            failure check actually bounds.

    Returns:
        A sorted, deduplicated float64 edge array (possibly empty, which
        means a single all-encompassing bucket).
    """
    candidates = profile.candidates
    if len(candidates) == 0:
        return np.asarray(sorted(set(forced_edges)), dtype=np.float64)
    totals = profile.left_counts.sum(axis=1).astype(np.float64)
    n = totals[-1]
    mass = np.diff(totals, prepend=0.0) / max(n, 1.0)
    # NaN is never a split point (NaN rows always go right, into the last
    # bucket), and a NaN edge would unsort the edges.
    excluded = np.isnan(candidates)
    if exclude_interval is not None:
        excluded |= (candidates >= exclude_interval[0]) & (
            candidates <= exclude_interval[1]
        )
    if (~excluded).sum() <= bucket_budget:
        edges = set(float(c) for c in candidates[~excluded])
    else:
        spread = float(profile.impurities.max() - profile.impurities.min())
        eps = max(spread, 1e-12) * 1e-3
        # The corner bound of a bucket loosens with the tuple mass it
        # swallows and tightens with its impurity headroom above the
        # estimated minimum; weight boundary placement by both.
        weights = mass / (profile.impurities - estimated_minimum + eps)
        weights[excluded] = 0.0
        cum = np.cumsum(weights)
        targets = cum[-1] * (np.arange(1, bucket_budget + 1) / bucket_budget)
        positions = np.searchsorted(cum, targets, side="left")
        positions = np.minimum(positions, len(candidates) - 1)
        edges = set(float(c) for c in candidates[positions])
    # Isolate heavy spike values (e.g. "commission == 0" holding half the
    # family) into 1-ulp point buckets: no interval of reals can subdivide
    # a single value, but a point bucket is evaluated exactly instead of
    # corner-bounded, so spikes stop causing false alarms.
    heavy = np.flatnonzero((mass * bucket_budget > 1.0) & ~excluded)
    for i in heavy:
        value = float(candidates[i])
        edges.add(value)
        edges.add(float(np.nextafter(value, -np.inf)))
    edges.update(forced_edges)
    return np.asarray(sorted(edges), dtype=np.float64)


def interval_forced_edges(low: float, high: float) -> tuple[float, float]:
    """Edges that isolate a confidence interval ``[low, high]``.

    ``nextafter(low, -inf)`` closes the last strictly-below bucket at the
    largest float below ``low``; ``high`` closes the last interval bucket.
    Buckets between the two cover only in-interval values and are skipped
    by the failure check (the exact in-interval search supersedes them).
    """
    return (float(np.nextafter(low, -np.inf)), float(high))


def point_bucket_mask(edges: np.ndarray) -> np.ndarray:
    """Buckets that can contain at most one distinct float64 value.

    Bucket ``j >= 1`` is a *point bucket* when its lower edge is exactly
    one ulp below its upper edge — no float lies strictly between, so the
    bucket's only possible candidate is the upper edge itself and the
    failure check may evaluate it exactly instead of corner-bounding.
    The trailing open bucket ``(e_last, inf)`` is never a point bucket.
    """
    mask = np.zeros(len(edges) + 1, dtype=bool)
    if len(edges) >= 2:
        mask[1:-1] = edges[:-1] == np.nextafter(edges[1:], -np.inf)
    return mask


def interval_bucket_range(
    edges: np.ndarray, low: float, high: float
) -> tuple[int, int]:
    """Half-open bucket-index range ``[first, last)`` covering [low, high].

    Buckets with index in the range contain only values inside the closed
    interval, *provided* :func:`interval_forced_edges` edges are present.
    """
    first = int(np.searchsorted(edges, low, side="left"))
    last = int(np.searchsorted(edges, high, side="left")) + 1
    return first, last
