"""Concave impurity functions over class-count vectors.

Everything BOAT's exactness guarantee rests on lives here: the reference
builder, BOAT's finalization pass, and the RainForest baselines all funnel
their candidate evaluations through :meth:`ImpurityMeasure.weighted` with
*integer* class counts.  Identical integer inputs through one code path
yield bit-identical float64 outputs, so argmin and tie-break decisions
agree across algorithms — the whole library compares impurities with ``<``
and never needs an epsilon.

All measures are concave in the class-probability arguments (required by
Lemma 3.1's corner-point lower bound):

* ``gini`` — the Gini index of CART [BFOS84],
* ``entropy`` — the information entropy of ID3/C4.5 [Qui86],
* ``interclass_variance`` — negated interclass variance, a stand-in for
  the index-of-correlation family of [MFM+98] (minimizing it maximizes the
  between-children class-distribution spread).

Conventions: a *weighted* impurity of a binary split is
``(n_L/N) imp(p_L) + (n_R/N) imp(p_R)``; empty sides contribute zero,
matching the limit of the concave functions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import SplitSelectionError


def _as_2d_float(counts: np.ndarray) -> np.ndarray:
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise SplitSelectionError(f"counts must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Row sums of a (m, k) float matrix: the bits of ``matrix.sum(axis=1)``.

    For fewer than 8 columns numpy's pairwise summation adds a row left to
    right, so adding whole columns left to right gives the same bits (the
    one exception, a row of negative zeros, cannot occur here: counts,
    probabilities and their terms are never -0.0) with k vector adds
    instead of a per-row reduction loop, which dominates on the tall,
    narrow matrices of candidate search.
    """
    k = matrix.shape[1]
    if not 0 < k < 8:
        return matrix.sum(axis=1)
    out = matrix[:, 0].copy()
    for c in range(1, k):
        out += matrix[:, c]
    return out


class ImpurityMeasure(ABC):
    """A concave impurity function evaluated from class counts."""

    #: Registry name (set by subclasses).
    name: str = ""

    @abstractmethod
    def _node_impurity_rows(self, counts: np.ndarray) -> np.ndarray:
        """Per-row impurity of a (m, k) float count matrix, in [0, ...].

        Rows with zero total must map to 0.0.
        """

    def node_impurity(self, counts: np.ndarray) -> float:
        """Impurity of a single node from its 1-D class-count vector."""
        return float(self._node_impurity_rows(_as_2d_float(counts))[0])

    def node_impurities(self, counts: np.ndarray) -> np.ndarray:
        """Per-row impurity of a (m, k) class-count matrix.

        Row ``i`` is bit-identical to ``node_impurity(counts[i])``: the
        row formula never mixes rows.
        """
        return self._node_impurity_rows(_as_2d_float(counts))

    def weighted(self, left_counts: np.ndarray, total_counts: np.ndarray) -> np.ndarray:
        """Weighted split impurity for candidate left-count rows.

        Args:
            left_counts: integer array of shape (m, k) — class counts of the
                left child for each of m candidate splits (1-D allowed for
                a single candidate).
            total_counts: integer array of shape (k,) — class counts of
                the whole family — or (m, k), one family total per
                candidate row; right counts are ``total - left``.

        Returns:
            float64 array of shape (m,) with the weighted impurity
            ``(n_L/N) imp(L) + (n_R/N) imp(R)`` per candidate, where ``N``
            is the row's own total (0.0 where ``N`` is 0).  The formula is
            row-local, so a (k,) total gives bit-identical output to the
            same total broadcast to (m, k).
        """
        left = _as_2d_float(left_counts)
        total = np.asarray(total_counts, dtype=np.float64)
        if total.shape != left.shape[1:] and total.shape != left.shape:
            raise SplitSelectionError(
                f"total_counts shape {total.shape} incompatible with "
                f"left_counts shape {left.shape}"
            )
        right = total - left
        n = total.sum() if total.ndim == 1 else _row_sums(total)
        n_left = _row_sums(left)
        n_right = _row_sums(right)
        weighted = n_left * self._node_impurity_rows(left) + n_right * (
            self._node_impurity_rows(right)
        )
        if np.ndim(n) == 0:
            if n <= 0:
                return np.zeros(left.shape[0], dtype=np.float64)
            return weighted / n
        return np.where(n > 0, weighted / np.where(n > 0, n, 1.0), 0.0)

    def weighted_scalar(
        self, left_counts: np.ndarray, total_counts: np.ndarray
    ) -> float:
        """Weighted impurity of one candidate split (scalar convenience)."""
        return float(self.weighted(left_counts, total_counts)[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Gini(ImpurityMeasure):
    """Gini index: ``1 - sum_i p_i^2`` (0 on pure nodes, concave)."""

    name = "gini"

    def _node_impurity_rows(self, counts: np.ndarray) -> np.ndarray:
        totals = _row_sums(counts)
        safe = np.where(totals > 0, totals, 1.0)
        p = counts / safe[:, np.newaxis]
        gini = 1.0 - _row_sums(np.square(p))
        return np.where(totals > 0, gini, 0.0)


class Entropy(ImpurityMeasure):
    """Shannon entropy in nats: ``-sum_i p_i ln p_i``."""

    name = "entropy"

    def _node_impurity_rows(self, counts: np.ndarray) -> np.ndarray:
        totals = _row_sums(counts)
        safe = np.where(totals > 0, totals, 1.0)
        p = counts / safe[:, np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log(p), 0.0)
        ent = -_row_sums(terms)
        return np.where(totals > 0, ent, 0.0)


class InterclassVariance(ImpurityMeasure):
    """Negated interclass spread (index-of-correlation family, [MFM+98]).

    Node impurity is the concave ``2 sum_i p_i (1 - p_i) / k`` variant:
    zero on pure nodes, maximal when balanced.  Note that for exactly two
    classes the 2/k scaling makes it coincide with Gini; the measures
    diverge from three classes up.
    """

    name = "interclass_variance"

    def _node_impurity_rows(self, counts: np.ndarray) -> np.ndarray:
        totals = _row_sums(counts)
        safe = np.where(totals > 0, totals, 1.0)
        p = counts / safe[:, np.newaxis]
        k = counts.shape[1]
        value = 2.0 * _row_sums(p * (1.0 - p)) / k
        return np.where(totals > 0, value, 0.0)


_REGISTRY: dict[str, ImpurityMeasure] = {
    m.name: m for m in (Gini(), Entropy(), InterclassVariance())
}


def get_impurity(name: str | ImpurityMeasure) -> ImpurityMeasure:
    """Look up an impurity measure by registry name (or pass one through)."""
    if isinstance(name, ImpurityMeasure):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SplitSelectionError(
            f"unknown impurity {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_impurities() -> tuple[str, ...]:
    """Names of all registered impurity measures."""
    return tuple(sorted(_REGISTRY))
