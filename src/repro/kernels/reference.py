"""The per-row Python reference kernel backend (the oracle).

Every kernel here processes tuples one at a time with explicit Python
loops, mirroring the paper's per-tuple description of the cleanup scan.
This backend exists to be *read* and *tested against*, not to be fast:
the differential suite runs every numpy kernel against it and the
kernel-oracle suite asserts whole trees built on either backend
serialize byte-identically.

Bit-exactness notes (the fine print lives in ``docs/KERNELS.md``):

* Integer kernels (histograms, contingency matrices, bucket counts,
  masks, candidate sweeps) are exact by construction — integer addition
  and IEEE comparisons have no rounding, so a per-row loop and a
  vectorized bincount agree bitwise on any input.
* ``weighted_impurity`` mirrors the float arithmetic of
  :meth:`repro.splits.impurity.ImpurityMeasure.weighted` per row for the
  Gini measure with fewer than 8 classes, where numpy's pairwise
  summation degenerates to the same left-to-right accumulation a Python
  loop performs.  Outside that domain (entropy, interclass variance, or
  ≥ 8 classes) it delegates to the shared float path — the oracle then
  checks the *routing* per row while the reduction stays common, which
  still pins the tree-identity guarantee.
* ``quest_numeric_moments`` routes each tuple to its class bucket with a
  per-row loop, then reduces each gathered bucket with ``numpy.sum`` so
  the reduction order matches the vectorized masked sum exactly.
* NaN handling matches numpy's conventions: NaN sorts after every finite
  value (stable), each NaN is its own distinct candidate (NaN != NaN),
  NaN falls in the last discretization bucket, and NaN is *held* by a
  confidence interval (both boundary comparisons are false).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .base import KernelBackend
from .grid import GridBucketizer

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..splits.impurity import ImpurityMeasure


def _stable_sort_indices(values: list[float]) -> list[int]:
    """Stable ascending order with NaN last — numpy's sort convention.

    The (isnan, value) key tuples make every NaN compare greater than
    every number while NaN-vs-NaN comparisons tie, so Timsort's
    stability preserves input order inside equal groups exactly like
    ``np.argsort(kind="stable")``.
    """
    return sorted(range(len(values)), key=lambda i: (math.isnan(values[i]), values[i]))


class PythonKernels(KernelBackend):
    """Per-row loop implementations of every kernel primitive."""

    name = "python"

    def class_histogram(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        counts = [0] * n_classes
        for label in labels.tolist():
            counts[label] += 1
        return np.asarray(counts, dtype=np.int64)

    def category_class_counts(
        self,
        codes: np.ndarray,
        labels: np.ndarray,
        domain_size: int,
        n_classes: int,
    ) -> np.ndarray:
        counts = np.zeros((domain_size, n_classes), dtype=np.int64)
        for code, label in zip(codes.tolist(), labels.tolist()):
            counts[code, label] += 1
        return counts

    def bucket_class_counts(
        self,
        edges: np.ndarray | GridBucketizer,
        values: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        groups: np.ndarray | None = None,
        n_groups: int = 1,
    ) -> np.ndarray:
        if isinstance(edges, GridBucketizer):
            edges = edges.edges
        edge_list = [float(e) for e in edges.tolist()]
        m = len(edge_list)
        counts = np.zeros((n_groups, m + 1, n_classes), dtype=np.int64)
        keys = [0] * len(values) if groups is None else groups.tolist()
        for g, v, label in zip(keys, values.tolist(), labels.tolist()):
            if math.isnan(v):
                # NaN sorts after every edge under numpy's searchsorted.
                bucket = m
            else:
                bucket = _bisect_left(edge_list, v)
            counts[g, bucket, label] += 1
        return counts[0] if groups is None else counts

    def interval_masks(
        self, values: np.ndarray, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(values)
        below = np.empty(n, dtype=bool)
        held = np.empty(n, dtype=bool)
        above = np.empty(n, dtype=bool)
        for i, v in enumerate(values.tolist()):
            b = v < low
            a = v > high
            below[i] = b
            above[i] = a
            held[i] = not (b or a)
        return below, held, above

    def subset_mask(self, codes: np.ndarray, subset: frozenset[int]) -> np.ndarray:
        n = len(codes)
        mask = np.empty(n, dtype=bool)
        for i, code in enumerate(codes.tolist()):
            mask[i] = code in subset
        return mask

    def numeric_candidates(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty((0, n_classes), dtype=np.int64),
            )
        vals = values.tolist()
        labs = labels.tolist()
        order = _stable_sort_indices(vals)
        running = [0] * n_classes
        candidates: list[float] = []
        left_rows: list[list[int]] = []
        for pos, i in enumerate(order):
            running[labs[i]] += 1
            v = vals[i]
            is_last = pos + 1 == n or v != vals[order[pos + 1]]
            if is_last:
                candidates.append(v)
                left_rows.append(list(running))
        return (
            np.asarray(candidates, dtype=np.float64),
            np.asarray(left_rows, dtype=np.int64),
        )

    def distinct_class_counts(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return (
                np.empty(0, dtype=values.dtype),
                np.empty((0, n_classes), dtype=np.int64),
            )
        vals = values.tolist()
        labs = labels.tolist()
        order = _stable_sort_indices(vals)
        distinct: list[float] = []
        rows: list[list[int]] = []
        prev = None
        for pos, i in enumerate(order):
            v = vals[i]
            if pos == 0 or v != prev:
                # First occurrence of a distinct value opens its group.
                distinct.append(v)
                rows.append([0] * n_classes)
            rows[-1][labs[i]] += 1
            prev = v
        return (
            np.asarray(distinct, dtype=values.dtype),
            np.asarray(rows, dtype=np.int64),
        )

    def weighted_impurity(
        self,
        measure: "ImpurityMeasure",
        left_counts: np.ndarray,
        total_counts: np.ndarray,
    ) -> np.ndarray:
        left = np.asarray(left_counts, dtype=np.float64)
        if left.ndim == 1:
            left = left[np.newaxis, :]
        totals = np.asarray(total_counts, dtype=np.float64)
        k = totals.shape[-1]
        if measure.name != "gini" or k >= 8:
            # Outside the exactness domain of the per-row mirror (numpy's
            # pairwise summation stops matching left-to-right accumulation
            # at 8 addends); fall through to the shared float path.
            return measure.weighted(left_counts, total_counts)
        m = left.shape[0]
        if totals.ndim == 1:
            totals = np.broadcast_to(totals, (m, k))
        out = np.empty(m, dtype=np.float64)
        for r in range(m):
            # Each row is scored against its own family total.
            total = totals[r].tolist()
            n = 0.0
            for t in total:
                n += t
            if n <= 0:
                out[r] = 0.0
                continue
            row = left[r].tolist()
            n_left = 0.0
            n_right = 0.0
            right = [0.0] * k
            for c in range(k):
                right[c] = total[c] - row[c]
                n_left += row[c]
                n_right += right[c]
            out[r] = (n_left * _gini_row(row, n_left) + n_right * _gini_row(right, n_right)) / n
        return out

    def quest_numeric_moments(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        gathered: list[list[float]] = [[] for _ in range(n_classes)]
        for v, c in zip(values.tolist(), labels.tolist()):
            gathered[c].append(v)
        sums = np.zeros(n_classes, dtype=np.float64)
        sumsq = np.zeros(n_classes, dtype=np.float64)
        for c in range(n_classes):
            # Reduce with numpy over the row-gathered buckets so the
            # summation order matches the vectorized masked sum bitwise.
            sums[c] = np.asarray(gathered[c], dtype=np.float64).sum()
            sumsq[c] = np.asarray(
                [v * v for v in gathered[c]], dtype=np.float64
            ).sum()
        return sums, sumsq


def _bisect_left(edges: list[float], value: float) -> int:
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if edges[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _gini_row(row: list[float], total: float) -> float:
    """Gini of one count row, mirroring ``Gini._node_impurity_rows``.

    Probabilities square via explicit multiplication (``p * p``, exactly
    numpy's ``np.square``) and accumulate left to right from 0.0 — the
    order numpy's pairwise summation uses for fewer than 8 addends.
    """
    if not total > 0:
        return 0.0
    acc = 0.0
    for c in row:
        p = c / total
        acc += p * p
    return 1.0 - acc
