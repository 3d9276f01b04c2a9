"""The kernel-backend interface: every columnar primitive of the build.

A :class:`KernelBackend` bundles the batch-level counting and evaluation
primitives that the cleanup scan, the reference builder, QUEST statistics
collection, and the RainForest AVC constructors are written against.  Two
implementations exist:

* :class:`repro.kernels.vectorized.NumpyKernels` — the production fast
  path: whole-batch numpy array operations (bincount, the exact grid
  bucketizer of :mod:`repro.kernels.grid`, cumsum, boolean masks).
* :class:`repro.kernels.reference.PythonKernels` — the per-row reference
  oracle: explicit Python loops over individual tuples, written to be
  obviously faithful to the paper's per-tuple description.

The two backends are held *bit-identical* (not merely approximately
equal) by the differential suite in ``tests/test_kernels.py`` and
``tests/test_kernel_oracle.py`` — the trees built on either backend must
serialize to the same bytes.  The float-exactness contract each
implementation honours is documented in ``docs/KERNELS.md``.

Every kernel consumes plain numpy column arrays (never structured
batches) and returns numpy arrays with the same dtypes as the
vectorized path, so callers are backend-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..splits.impurity import ImpurityMeasure
    from .grid import GridBucketizer


class KernelBackend(ABC):
    """Batch-level counting/evaluation primitives behind one interface."""

    #: Registry name; mirrors ``repro.config.KERNEL_BACKENDS`` entries.
    name: str = ""

    # ------------------------------------------------------------------
    # Histogram accumulation (cleanup-scan hot path)
    # ------------------------------------------------------------------

    @abstractmethod
    def class_histogram(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        """Class-count vector of a label column.

        Returns a (k,) int64 array with ``out[c] == #{i : labels[i] == c}``.
        """

    @abstractmethod
    def category_class_counts(
        self,
        codes: np.ndarray,
        labels: np.ndarray,
        domain_size: int,
        n_classes: int,
    ) -> np.ndarray:
        """Joint (category, class) counts of a categorical column.

        Returns a (domain_size, k) int64 matrix with
        ``out[v, c] == #{i : codes[i] == v and labels[i] == c}``.
        """

    @abstractmethod
    def bucket_class_counts(
        self,
        edges: "np.ndarray | GridBucketizer",
        values: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        groups: np.ndarray | None = None,
        n_groups: int = 1,
    ) -> np.ndarray:
        """Joint (bucket, class) counts of a numeric column.

        ``edges`` is a sorted, NaN-free 1-D array of m bucket boundaries,
        or a :class:`~repro.kernels.grid.GridBucketizer` compiled from
        them (its ``edges``); row i of the (m + 1, k) int64 result counts
        tuples in bucket i, the number of edges strictly below the value
        (:func:`numpy.searchsorted` with ``side="left"``).  NaN values
        land in the last bucket.

        With ``groups`` (one int in ``[0, n_groups)`` per value) the
        result is (n_groups, m + 1, k): one keyed count per group — the
        cleanup scan's per-terminal pass.
        """

    # ------------------------------------------------------------------
    # Coarse-criterion membership (cleanup-scan hot path)
    # ------------------------------------------------------------------

    @abstractmethod
    def interval_masks(
        self, values: np.ndarray, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(below, held, above) boolean masks of a confidence interval.

        below: ``v < low``; above: ``v > high``; held: everything else —
        including NaN, which compares false on both sides and is
        therefore held at the node for exact in-memory resolution.
        """

    @abstractmethod
    def subset_mask(self, codes: np.ndarray, subset: frozenset[int]) -> np.ndarray:
        """Boolean membership mask of a categorical splitting subset."""

    # ------------------------------------------------------------------
    # Numeric split-candidate evaluation
    # ------------------------------------------------------------------

    @abstractmethod
    def numeric_candidates(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct candidate values with cumulative left class counts.

        Returns ``(candidates, left_counts)`` where ``candidates`` is the
        (m,) ascending array of distinct values (NaN sorts last; each NaN
        is its own candidate since NaN != NaN) and ``left_counts`` is the
        (m, k) int64 matrix of class counts among tuples with
        ``v <= candidate`` (cumulative counts at each distinct value's
        last occurrence in the stable sort order).
        """

    @abstractmethod
    def distinct_class_counts(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values with *per-value* (not cumulative) class counts.

        Returns ``(values, counts)``: the (m,) ascending distinct values
        (first occurrence in stable sort order) and the (m, k) int64
        per-value class-count matrix.  This is the RainForest AVC-set
        constructor primitive.
        """

    @abstractmethod
    def weighted_impurity(
        self,
        measure: "ImpurityMeasure",
        left_counts: np.ndarray,
        total_counts: np.ndarray,
    ) -> np.ndarray:
        """Weighted split impurity per candidate left-count row.

        Semantics of :meth:`repro.splits.impurity.ImpurityMeasure.weighted`:
        given (m, k) integer left counts and the (k,) family total — or
        (m, k) totals, one per row, each row then scored against its own
        total — return the (m,) float64 weighted impurities
        ``(n_L imp(L) + n_R imp(R)) / N``.
        """

    # ------------------------------------------------------------------
    # QUEST sufficient statistics
    # ------------------------------------------------------------------

    @abstractmethod
    def quest_numeric_moments(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class first and second moments of a numeric column.

        Returns ``(sums, sumsq)``, both (k,) float64, where
        ``sums[c] = sum(v_i : labels[i] == c)`` and
        ``sumsq[c] = sum(v_i^2 : labels[i] == c)``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}()"
