"""Best-split search over a numerical predictor attribute.

Candidate split points are the *observed attribute values* of the node's
family (predicate ``X <= x``), exactly as the paper defines
``imp_X(n, X, x)`` for ``x in dom(X)``.  Candidates leaving either child
below ``min_samples_leaf`` are inadmissible (this also rules out the
maximum value, whose right child would be empty), and so is NaN: NaN is
not in ``dom(X)``, and ``X <= NaN`` holds for no tuple, so such a split
would send the whole family right and never terminate.

The search returns, besides the winning candidate, the full sorted
candidate/impurity profile — BOAT's sampling phase uses it to place
discretization bucket boundaries adaptively (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import DEFAULT_KERNELS, KernelBackend
from .impurity import ImpurityMeasure


@dataclass(frozen=True)
class NumericProfile:
    """The impurity profile of one numeric attribute at one node.

    Attributes:
        candidates: ascending distinct attribute values (all of them, even
            inadmissible ones — the discretizer needs the full profile).
        left_counts: (m, k) int64 — class counts of ``X <= candidate``.
        impurities: (m,) float64 — weighted impurity per candidate.
        admissible: (m,) bool — non-NaN candidates satisfying
            min_samples_leaf.
    """

    candidates: np.ndarray
    left_counts: np.ndarray
    impurities: np.ndarray
    admissible: np.ndarray

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def best(self) -> tuple[float, float] | None:
        """(impurity, split value) of the best admissible candidate.

        Ties resolve to the smallest split value (first occurrence in the
        ascending candidate order).  ``None`` if nothing is admissible.
        """
        if not self.admissible.any():
            return None
        masked = np.where(self.admissible, self.impurities, np.inf)
        idx = int(np.argmin(masked))
        return float(masked[idx]), float(self.candidates[idx])


def cumulative_class_counts(
    sorted_labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Cumulative class counts along a sorted family.

    Returns an (n, k) int64 matrix whose row i counts labels among the
    first i+1 records.
    """
    n = len(sorted_labels)
    out = np.zeros((n, n_classes), dtype=np.int64)
    for c in range(n_classes):
        np.cumsum(sorted_labels == c, out=out[:, c])
    return out


def numeric_profile(
    values: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    impurity: ImpurityMeasure,
    min_samples_leaf: int,
    base_left: np.ndarray | None = None,
    total_counts: np.ndarray | None = None,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> NumericProfile:
    """Impurity profile of splitting on ``values`` within one family.

    The optional ``base_left``/``total_counts`` arguments serve BOAT's
    finalization: ``values``/``labels`` then cover only the tuples held
    inside the confidence interval, ``base_left`` counts the family tuples
    strictly below the interval, and ``total_counts`` counts the whole
    family.  With the defaults the profile covers the full family (the
    reference builder's use).
    """
    n = len(values)
    if labels.shape != (n,):
        raise ValueError("values and labels must have equal length")
    if base_left is None:
        base_left = np.zeros(n_classes, dtype=np.int64)
    else:
        base_left = np.asarray(base_left, dtype=np.int64)
    candidates, cum_left = kernels.numeric_candidates(values, labels, n_classes)
    if total_counts is None:
        if n:
            total_counts = base_left + cum_left[-1]
        else:
            total_counts = base_left.copy()
    else:
        total_counts = np.asarray(total_counts, dtype=np.int64)
    if n == 0:
        empty = np.empty(0)
        return NumericProfile(
            candidates=empty,
            left_counts=np.empty((0, n_classes), dtype=np.int64),
            impurities=empty,
            admissible=np.empty(0, dtype=bool),
        )
    left_counts = base_left[np.newaxis, :] + cum_left
    impurities = kernels.weighted_impurity(impurity, left_counts, total_counts)
    n_total = int(total_counts.sum())
    n_left = left_counts.sum(axis=1)
    admissible = (
        (n_left >= min_samples_leaf)
        & (n_total - n_left >= min_samples_leaf)
        & ~np.isnan(candidates)
    )
    return NumericProfile(
        candidates=candidates,
        left_counts=left_counts,
        impurities=impurities,
        admissible=admissible,
    )


def best_numeric_split(
    values: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    impurity: ImpurityMeasure,
    min_samples_leaf: int,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> tuple[float, float] | None:
    """(impurity, split value) of the best admissible split, or ``None``."""
    profile = numeric_profile(
        values, labels, n_classes, impurity, min_samples_leaf, kernels=kernels
    )
    return profile.best()
