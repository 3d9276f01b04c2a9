"""Best-subset search over a categorical predictor attribute.

The splitting predicate is ``X in Y`` for a proper non-empty subset Y of
the categories *present at the node*.  For small domains every subset is
evaluated (``2^(p-1) - 1`` candidates after fixing the orientation); above
``max_categorical_exhaustive`` present categories the deterministic
sorted-by-class-probability prefix search of Breiman et al. is used — it
is provably optimal for two-class impurity minimization and a documented
heuristic otherwise.

Both searches consume a (domain_size, k) category-by-class *count matrix*,
never raw tuples, so BOAT's cleanup phase (which accumulates exactly these
counts during its scan) reuses them verbatim and is guaranteed to agree
with the reference builder.
"""

from __future__ import annotations

import functools

import numpy as np

from ..kernels import DEFAULT_KERNELS, KernelBackend
from .base import canonical_subset
from .impurity import ImpurityMeasure


def category_class_counts(
    codes: np.ndarray, labels: np.ndarray, domain_size: int, n_classes: int
) -> np.ndarray:
    """(domain_size, k) int64 contingency matrix of one family."""
    flat = codes.astype(np.int64) * n_classes + labels
    counts = np.bincount(flat, minlength=domain_size * n_classes)
    return counts.reshape(domain_size, n_classes)


@functools.lru_cache(maxsize=None)
def exhaustive_selectors(p: int) -> np.ndarray:
    """Membership matrix of all proper subsets containing category rank 0.

    Row ``mask`` selects rank 0 plus the ranks of ``present[1:]`` whose bit
    is set in ``mask``; the all-ones mask (empty right side) is excluded.
    Rows are in ascending mask order — the deterministic tie-break order.
    The first ``2^(q-1) - 1`` rows, restricted to the first ``q`` columns,
    are exactly ``exhaustive_selectors(q)`` for any ``q <= p``.

    Built once per ``p`` and shared, so the table is read-only.  Callers
    pass ``p`` of at most ``max_categorical_exhaustive``, which bounds the
    cache.
    """
    m = 1 << (p - 1)
    selectors = np.zeros((m - 1, p), dtype=bool)
    selectors[:, 0] = True
    masks = np.arange(m - 1)
    selectors[:, 1:] = (masks[:, np.newaxis] >> np.arange(p - 1)) & 1
    selectors.flags.writeable = False
    return selectors


def _prefix_selectors(present: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Membership matrix of prefixes sorted by first-class probability.

    Sort key: (P(class 0 | category), category code) — fully deterministic.
    Exact for two-class impurity minimization (Breiman et al.), a
    documented heuristic otherwise.
    """
    totals = counts[present].sum(axis=1).astype(np.float64)
    p_first = counts[present, 0] / totals
    rank_of = np.empty(len(present), dtype=np.int64)
    rank_of[np.lexsort((present, p_first))] = np.arange(len(present))
    # selectors[i] = first i+1 ranked categories, expressed in present order.
    return np.arange(1, len(present))[:, np.newaxis] > rank_of[np.newaxis, :]


def best_categorical_split_from_counts(
    counts: np.ndarray,
    impurity: ImpurityMeasure,
    min_samples_leaf: int,
    max_exhaustive: int,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> tuple[float, frozenset[int]] | None:
    """Best admissible subset split from a contingency matrix.

    Returns (weighted impurity, canonical left subset), or ``None`` when
    fewer than two categories are present or no candidate is admissible.
    Ties resolve to the earliest candidate in the deterministic enumeration
    order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    present = np.flatnonzero(counts.sum(axis=1) > 0)
    if len(present) < 2:
        return None
    if len(present) <= max_exhaustive:
        selectors = exhaustive_selectors(len(present))
    else:
        selectors = _prefix_selectors(present, counts)
    if len(selectors) == 0:
        return None
    total = counts.sum(axis=0)
    left_counts = selectors.astype(np.int64) @ counts[present]
    impurities = kernels.weighted_impurity(impurity, left_counts, total)
    n_total = int(total.sum())
    n_left = left_counts.sum(axis=1)
    admissible = (n_left >= min_samples_leaf) & (
        n_total - n_left >= min_samples_leaf
    )
    if not admissible.any():
        return None
    masked = np.where(admissible, impurities, np.inf)
    idx = int(np.argmin(masked))
    subset = canonical_subset(
        (int(c) for c in present[selectors[idx]]), (int(c) for c in present)
    )
    return float(masked[idx]), subset


def best_categorical_split(
    codes: np.ndarray,
    labels: np.ndarray,
    domain_size: int,
    n_classes: int,
    impurity: ImpurityMeasure,
    min_samples_leaf: int,
    max_exhaustive: int,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> tuple[float, frozenset[int]] | None:
    """Tuple-level convenience wrapper over the count-matrix search."""
    counts = kernels.category_class_counts(codes, labels, domain_size, n_classes)
    return best_categorical_split_from_counts(
        counts, impurity, min_samples_leaf, max_exhaustive, kernels
    )
