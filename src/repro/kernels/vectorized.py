"""The vectorized numpy kernel backend (the production fast path).

Each kernel is the whole-batch array formulation of the corresponding
per-row primitive in :mod:`repro.kernels.reference` — bincount for
histograms, flattened bincount for contingency matrices, the exact grid
bucketizer (:mod:`repro.kernels.grid`) for bucketing, stable argsort +
per-class cumsum for the numeric candidate sweep.  These are the exact
array expressions the cleanup scan and the reference builder
historically inlined; centralizing them here makes the backend switch a
pure dispatch decision with bit-identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import KernelBackend
from .grid import GridBucketizer

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..splits.impurity import ImpurityMeasure


class NumpyKernels(KernelBackend):
    """Whole-batch numpy implementations of every kernel primitive."""

    name = "numpy"

    def class_histogram(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        return np.bincount(labels, minlength=n_classes).astype(np.int64)

    def category_class_counts(
        self,
        codes: np.ndarray,
        labels: np.ndarray,
        domain_size: int,
        n_classes: int,
    ) -> np.ndarray:
        flat = codes.astype(np.int64, copy=False) * n_classes + labels
        counts = np.bincount(flat, minlength=domain_size * n_classes)
        return counts.reshape(domain_size, n_classes)

    def bucket_class_counts(
        self,
        edges: np.ndarray | GridBucketizer,
        values: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        groups: np.ndarray | None = None,
        n_groups: int = 1,
    ) -> np.ndarray:
        bucketize = edges if isinstance(edges, GridBucketizer) else GridBucketizer(edges)
        width = len(bucketize.edges) + 1
        keys = bucketize(values)
        if groups is not None:
            keys += groups * width
        keys *= n_classes
        keys += labels
        flat = np.bincount(keys, minlength=n_groups * width * n_classes)
        shape = (width, n_classes) if groups is None else (n_groups, width, n_classes)
        return flat.reshape(shape)

    def interval_masks(
        self, values: np.ndarray, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        below = values < low
        above = values > high
        return below, ~(below | above), above

    def subset_mask(self, codes: np.ndarray, subset: frozenset[int]) -> np.ndarray:
        return np.isin(codes, sorted(subset))

    def numeric_candidates(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty((0, n_classes), dtype=np.int64),
            )
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = labels[order]
        cum = np.zeros((n, n_classes), dtype=np.int64)
        for c in range(n_classes):
            np.cumsum(sorted_labels == c, out=cum[:, c])
        # Last occurrence of each distinct value is that value's candidate.
        is_last = np.empty(n, dtype=bool)
        is_last[:-1] = sorted_values[:-1] != sorted_values[1:]
        is_last[-1] = True
        boundary = np.flatnonzero(is_last)
        return sorted_values[boundary], cum[boundary]

    def distinct_class_counts(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return (
                np.empty(0, dtype=values.dtype),
                np.empty((0, n_classes), dtype=np.int64),
            )
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = labels[order]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = sorted_values[1:] != sorted_values[:-1]
        group = np.cumsum(keep) - 1
        n_groups = int(group[-1]) + 1
        flat = np.bincount(
            group * n_classes + sorted_labels, minlength=n_groups * n_classes
        )
        return sorted_values[keep], flat.reshape(n_groups, n_classes)

    def weighted_impurity(
        self,
        measure: "ImpurityMeasure",
        left_counts: np.ndarray,
        total_counts: np.ndarray,
    ) -> np.ndarray:
        return measure.weighted(left_counts, total_counts)

    def quest_numeric_moments(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        sums = np.zeros(n_classes, dtype=np.float64)
        sumsq = np.zeros(n_classes, dtype=np.float64)
        for c in range(n_classes):
            column = values[labels == c]
            sums[c] = column.sum()
            sumsq[c] = np.square(column).sum()
        return sums, sumsq
