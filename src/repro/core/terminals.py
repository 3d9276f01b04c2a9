"""The cleanup scan's batch kernel: route once, count per terminal (§3.3).

Every tuple that streams down the skeleton ends in exactly one
*terminal*: the held store of a :class:`CoarseNumeric` node (value inside
the confidence interval, or NaN) or the family store of a frontier node.
:func:`compile_skeleton` numbers the terminals in preorder, so the
terminals of any node's subtree form one contiguous range, and a
:class:`SkeletonPlan` turns a batch into per-node statistics in four
steps:

1. *Route.*  Each row goes to its terminal through column gathers — a
   node reads its splitting column at the rows that reach it — never
   through copies of the structured records.
2. *Partition.*  The rows of a terminal, in scan order, are that
   terminal's slice of the stable partition of the batch by terminal;
   held and family rows are gathered from it once, in scan order, with
   ``np.take`` (a structured fancy index is over ten times slower).
3. *Count.*  One keyed count per statistic over (terminal, key, class),
   where the key is a category code or a bucket index.  A node's counts
   are a difference of prefix sums over its terminal range; for a
   numeric criterion ``below``/``above`` are the left/right child ranges.
4. *Bucket once.*  Each numeric column is bucketed once per batch against
   the union of all nodes' edges for that attribute, with a
   :class:`~repro.kernels.grid.GridBucketizer` compiled once per plan.  A
   node's buckets are sums of consecutive union buckets — exact, because
   its edges are a subset of the union.

QUEST moments are float sums, whose bits depend on summation order: a
node's rows are selected from each column in scan order with a
terminal-range mask and summed per node, so the order is that of the
node's own rows.  Every primitive goes through the
:class:`KernelBackend`, so the ``python`` backend runs the same plan with
per-row primitives.  The in-database cleanup (``sql_pushdown``) shares the
terminal numbering and subtree ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..kernels.grid import GridBucketizer
from ..storage import CLASS_COLUMN, Schema
from .coarse import CoarseCategorical, CoarseNumeric

if TYPE_CHECKING:  # pragma: no cover - types only (state imports this module)
    from .state import BoatNode


def is_terminal(node: "BoatNode") -> bool:
    """Whether tuples can end at ``node``: a frontier or a numeric criterion."""
    return node.is_frontier or isinstance(node.criterion, CoarseNumeric)


@dataclass
class NodeDelta:
    """One node's pending statistics update for one scanned batch.

    Produced by :meth:`SkeletonPlan.deltas` (thread-safe, no mutation)
    and consumed by :func:`~repro.core.state.apply_batch_delta`
    (parent-only mutation).  Held and family rows are in scan order.
    """

    node: "BoatNode"
    class_counts: np.ndarray
    cat_counts: dict[int, np.ndarray]
    bucket_counts: dict[int, np.ndarray]
    below_counts: np.ndarray | None = None
    above_counts: np.ndarray | None = None
    held_rows: np.ndarray | None = None
    family_rows: np.ndarray | None = None
    moments: np.ndarray | None = None


class _NumericAttribute:
    """One numeric attribute's union bucketizer and per-node bucket bounds."""

    __slots__ = ("index", "bucketize", "bounds")

    def __init__(
        self, index: int, bucketize: GridBucketizer, bounds: dict[int, np.ndarray]
    ):
        self.index = index
        self.bucketize = bucketize
        #: node position -> (m + 2,) union-bucket bounds of the node's
        #: buckets: node bucket j sums union buckets ``bounds[j] :
        #: bounds[j + 1]`` (an ``np.add.reduceat`` written as a difference
        #: of prefix sums, so repeated edges give empty buckets).
        self.bounds = bounds


class SkeletonPlan:
    """A skeleton compiled for batch routing and counting.

    Reads only immutable skeleton state (criteria, bucket edges), so one
    plan serves any number of batches, concurrently.  Compile a new plan
    whenever the skeleton's shape changes.
    """

    def __init__(self, root: "BoatNode", schema: Schema):
        self.root = root
        self.schema = schema
        #: Every node, preorder.
        self.nodes: list[BoatNode] = list(root.nodes())
        #: Terminal nodes, preorder: terminal ``t`` is ``terminals[t]``.
        self.terminals: list[BoatNode] = [n for n in self.nodes if is_terminal(n)]
        self._position = {id(node): p for p, node in enumerate(self.nodes)}
        #: Per node position: the half-open terminal range of its subtree.
        self.ranges: list[tuple[int, int]] = [(0, 0)] * len(self.nodes)
        self._number(root, 0)
        self._cat_indices = sorted({i for n in self.nodes for i in n.cat_counts})
        numeric: dict[int, list[BoatNode]] = {}
        for node in self.nodes:
            for index in node.bucket_edges:
                numeric.setdefault(index, []).append(node)
        self._numeric = [
            self._compile_numeric(index, owners) for index, owners in sorted(numeric.items())
        ]

    def _number(self, node: "BoatNode", start: int) -> int:
        """Assign terminal ranges in preorder; returns the range end."""
        end = start + 1 if is_terminal(node) else start
        if node.criterion is not None:
            left, right = node.children()
            end = self._number(right, self._number(left, end))
        self.ranges[self._position[id(node)]] = (start, end)
        return end

    def _compile_numeric(self, index: int, owners: list["BoatNode"]) -> _NumericAttribute:
        # Sorted distinct edges; not np.unique, whose first call imports
        # numpy.ma (about 1 MB of resident memory).
        union = np.sort(np.concatenate([n.bucket_edges[index] for n in owners]))
        distinct = np.ones(len(union), dtype=bool)
        distinct[1:] = union[1:] != union[:-1]
        union = union[distinct]
        bounds = {}
        for node in owners:
            cut = np.searchsorted(union, node.bucket_edges[index], side="left") + 1
            bounds[self._position[id(node)]] = np.concatenate(([0], cut, [len(union) + 1]))
        return _NumericAttribute(index, GridBucketizer(union), bounds)

    def subtree_range(self, node: "BoatNode") -> tuple[int, int]:
        """The half-open preorder terminal range of ``node``'s subtree."""
        return self.ranges[self._position[id(node)]]

    def subtree_terminals(self, node: "BoatNode") -> list["BoatNode"]:
        """The terminals of ``node``'s subtree, preorder."""
        lo, hi = self.subtree_range(node)
        return self.terminals[lo:hi]

    # -- the batch kernel -----------------------------------------------------

    def deltas(
        self, batch: np.ndarray, kernels: KernelBackend = DEFAULT_KERNELS
    ) -> list[NodeDelta]:
        """Per-node statistics increments of one batch, in preorder.

        A node no row reaches emits no delta.  Applying the deltas batch
        by batch in scan order reproduces the serial scan bit for bit,
        including the row order of held and family stores.
        """
        n = len(batch)
        if n == 0:
            return []
        schema = self.schema
        k = schema.n_classes
        n_terms = len(self.terminals)
        rows = self._route(batch, kernels)
        # Each terminal's held or family rows, gathered before counting:
        # allocating the long-lived store chunks ahead of the short-lived
        # counting temporaries keeps the heap compact (lower peak RSS).
        stored = [
            batch if idx is None else np.take(batch, idx) if len(idx) else None
            for idx in rows
        ]
        # Terminal of every row, scan order (only a frontier root is None).
        term = np.zeros(n, dtype=np.intp)
        for t in range(1, n_terms):
            term[rows[t]] = t
        labels = batch[CLASS_COLUMN]
        sizes = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum([n if idx is None else len(idx) for idx in rows], out=sizes[1:])
        # A lone terminal (a frontier root) needs no key.
        classes = _prefix_sums(
            kernels.class_histogram(labels, k)[np.newaxis]
            if n_terms == 1
            else kernels.category_class_counts(term, labels, n_terms, k)
        )
        cats = {}
        for index in self._cat_indices:
            domain = schema[index].domain_size
            codes = term * domain + batch[schema[index].name]
            counts = kernels.category_class_counts(codes, labels, n_terms * domain, k)
            cats[index] = _prefix_sums(counts.reshape(n_terms, domain, k))
        # Prefix sums over (terminal, union bucket): a node's bucket is a
        # four-corner difference, exact for any edge subset of the union.
        buckets = {
            attr.index: _prefix_sums(
                kernels.bucket_class_counts(
                    attr.bucketize, batch[schema[attr.index].name], labels, k,
                    groups=term, n_groups=n_terms,
                ),
                axes=2,
            )
            for attr in self._numeric
        }

        out: list[NodeDelta] = []
        for p, node in enumerate(self.nodes):
            lo, hi = self.ranges[p]
            if sizes[hi] == sizes[lo]:
                continue
            delta = NodeDelta(
                node,
                classes[hi] - classes[lo],
                {i: cats[i][hi] - cats[i][lo] for i in node.cat_counts},
                {
                    attr.index: np.diff(
                        (buckets[attr.index][hi] - buckets[attr.index][lo])[attr.bounds[p]],
                        axis=0,
                    )
                    for attr in self._numeric
                    if p in attr.bounds
                },
            )
            if node.moments is not None:
                rows_at = None if (lo, hi) == (0, n_terms) else (term >= lo) & (term < hi)
                delta.moments = numeric_moments(batch, labels, schema, kernels, rows_at)
            if node.criterion is None:
                delta.family_rows = stored[lo]
            elif isinstance(node.criterion, CoarseNumeric):
                (llo, lhi), (rlo, rhi) = (
                    self.subtree_range(child) for child in node.children()
                )
                delta.below_counts = classes[lhi] - classes[llo]
                delta.above_counts = classes[rhi] - classes[rlo]
                delta.held_rows = stored[lo]
            out.append(delta)
        return out

    def _route(
        self, batch: np.ndarray, kernels: KernelBackend
    ) -> list[np.ndarray | None]:
        """Each terminal's rows: ascending row indices (``None``: all rows,
        only for a frontier root).

        An explicit stack, not a recursive closure: a closure cycle would
        keep every scanned batch alive until the cyclic collector runs.
        """
        rows: list[np.ndarray | None] = [np.empty(0, dtype=np.intp)] * len(self.terminals)
        stack: list[tuple[BoatNode, np.ndarray | None]] = [(self.root, None)]
        while stack:
            node, idx = stack.pop()
            if idx is not None and len(idx) == 0:
                continue
            lo, _ = self.ranges[self._position[id(node)]]
            criterion = node.criterion
            if criterion is None:
                rows[lo] = idx
                continue
            column = batch[self.schema[criterion.attribute_index].name]
            values = column if idx is None else column[idx]
            left, right = node.children()
            if isinstance(criterion, CoarseCategorical):
                go_left = kernels.subset_mask(values, criterion.subset)
                stack.append((right, _subset(idx, ~go_left)))
                stack.append((left, _subset(idx, go_left)))
                continue
            below, held, above = kernels.interval_masks(
                values, criterion.low, criterion.high
            )
            rows[lo] = _subset(idx, held)
            stack.append((right, _subset(idx, above)))
            stack.append((left, _subset(idx, below)))
        return rows


def _prefix_sums(counts: np.ndarray, axes: int = 1) -> np.ndarray:
    """Zero-led int64 prefix sums of ``counts`` over its first ``axes`` axes."""
    shape = tuple(d + 1 for d in counts.shape[:axes]) + counts.shape[axes:]
    out = np.zeros(shape, dtype=np.int64)
    for axis in range(axes):
        counts = np.cumsum(counts, axis=axis)
    out[(slice(1, None),) * axes] = counts
    return out


def numeric_moments(
    batch: np.ndarray,
    labels: np.ndarray,
    schema: Schema,
    kernels: KernelBackend = DEFAULT_KERNELS,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """(2, n_numeric, k) per-class sums and sums of squares of a batch.

    ``mask`` selects a node's rows in scan order; the sums run over that
    sequence, which fixes their float bits at any routing.
    """
    k = schema.n_classes
    if mask is not None:
        labels = labels[mask]
    out = np.empty((2, len(schema.numerical_attributes), k))
    for i, attr in enumerate(schema.numerical_attributes):
        values = batch[attr.name]
        out[0, i], out[1, i] = kernels.quest_numeric_moments(
            values if mask is None else values[mask], labels, k
        )
    return out


def _subset(idx: np.ndarray | None, mask: np.ndarray) -> np.ndarray:
    """The rows of ``idx`` (``None``: every row) that ``mask`` selects."""
    return np.flatnonzero(mask) if idx is None else idx[mask]


def compile_skeleton(root: "BoatNode", schema: Schema) -> SkeletonPlan:
    """Compile ``root``'s skeleton for :meth:`SkeletonPlan.deltas`."""
    return SkeletonPlan(root, schema)
