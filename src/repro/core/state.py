"""Per-node state of the BOAT skeleton tree.

A :class:`BoatNode` carries everything the cleanup scan accumulates at one
node (§3.3–3.5) and everything the incremental maintainer keeps alive
between updates (§4):

* exact class counts of the tuples that streamed through the node,
* per-categorical-attribute contingency matrices (exact categorical
  impurity evaluation and splitting-attribute verification),
* per-numerical-attribute discretization bucket counts (stamp points for
  the Lemma 3.1 check) — impurity skeletons,
* per-numerical-attribute per-class sums and sums of squares (QUEST's
  sufficient statistics, §5) — QUEST skeletons,
* for a numeric coarse criterion: exact class counts strictly below /
  above the confidence interval and the *held* tuples inside it,
* for a frontier node: the collected family.

Persistent statistics cover only tuples that physically streamed past the
node — tuples held at an ancestor are re-routed non-destructively at every
finalization pass (:func:`effective_stats`), which keeps repeated
incremental updates exactly correct when final split points drift inside
their confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import BoatConfig
from ..exceptions import SplitSelectionError, StorageError
from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..kernels.grid import GridBucketizer
from ..storage import CLASS_COLUMN, IOStats, Schema, TupleStore
from ..storage.spill import StoreRemoval, earliest_matches
from ..splits.methods import ImpuritySplitSelection
from ..splits.quest import QuestSplitSelection
from .coarse import CoarseCategorical, CoarseCriterion, CoarseNumeric
from .discretize import point_bucket_mask
from .terminals import NodeDelta, compile_skeleton, numeric_moments


#: The split selection methods BOAT instantiates: impurity-based (§3)
#: and QUEST (§5).
BoatMethod = ImpuritySplitSelection | QuestSplitSelection


def require_boat_method(method: object) -> None:
    """Raise unless ``method`` is a split selection BOAT can run."""
    if not isinstance(method, (ImpuritySplitSelection, QuestSplitSelection)):
        raise SplitSelectionError(
            "BOAT needs an ImpuritySplitSelection or a QuestSplitSelection, "
            f"got {method!r}"
        )


def reject_float_moments(method: BoatMethod, where: str) -> None:
    """Raise for QUEST on a path that needs integer node statistics.

    QUEST's per-node moments are float sums: they cannot be retracted
    exactly (incremental deletes), merged across shards in scan order,
    checkpointed, or computed by the SQL aggregation pushdown without a
    written float tolerance.  Those paths refuse QUEST up front, before
    any scan or spill file.
    """
    if isinstance(method, QuestSplitSelection):
        raise SplitSelectionError(
            f"{where} does not support QUEST: its per-node moments are "
            "float sums, and this path needs integer statistics"
        )


class BucketLayout:
    """A node's numeric discretizations stacked attribute after attribute.

    Bucket edges never change once a node is built, so this is computed
    once per node (:attr:`BoatNode.bucket_layout`).  ``indices`` are the
    attributes with edges, in schema order; attribute ``indices[s]`` owns
    rows ``starts[s]`` up to the next start of a stacked
    ``(sum(m_a + 1), k)`` bucket-count array.  ``attribute_of_row`` and
    ``point`` (its point buckets, :func:`point_bucket_mask`) are per
    stacked row.  :meth:`bucketizer` compiles each attribute's exact
    bucketizer on first use and keeps it.
    """

    __slots__ = (
        "edges",
        "indices",
        "starts",
        "attribute_of_row",
        "point",
        "_bucketizers",
    )

    def __init__(self, bucket_edges: dict[int, np.ndarray]):
        self.edges = bucket_edges
        self.indices = sorted(bucket_edges)
        sizes = [len(bucket_edges[i]) + 1 for i in self.indices]
        self.starts = np.cumsum([0] + sizes)[:-1].astype(np.intp)
        self.attribute_of_row = np.repeat(
            np.asarray(self.indices, dtype=np.intp), sizes
        )
        self.point = (
            np.concatenate([point_bucket_mask(bucket_edges[i]) for i in self.indices])
            if self.indices
            else np.zeros(0, dtype=bool)
        )
        self._bucketizers: dict[int, GridBucketizer] = {}

    def bucketizer(self, index: int) -> GridBucketizer:
        bucketize = self._bucketizers.get(index)
        if bucketize is None:
            bucketize = self._bucketizers[index] = GridBucketizer(self.edges[index])
        return bucketize


class BoatNode:
    """One node of the BOAT skeleton with its accumulated statistics."""

    __slots__ = (
        "node_id",
        "depth",
        "criterion",
        "left",
        "right",
        "parent",
        "class_counts",
        "below_counts",
        "above_counts",
        "held",
        "family_store",
        "cat_counts",
        "bucket_edges",
        "bucket_counts",
        "moments",
        "estimated_family",
        "dirty",
        "cached_final",
        "cached_key",
        "deepen_watermark",
        "_bucket_layout",
    )

    def __init__(
        self,
        node_id: int,
        depth: int,
        criterion: CoarseCriterion | None,
        schema: Schema,
        bucket_edges: dict[int, np.ndarray],
        config: BoatConfig,
        spill_dir: str | None = None,
        io_stats: IOStats | None = None,
        estimated_family: int = 0,
        moments: bool = False,
    ):
        k = schema.n_classes
        self.node_id = node_id
        self.depth = depth
        self.criterion = criterion
        self.left: BoatNode | None = None
        self.right: BoatNode | None = None
        self.parent: BoatNode | None = None
        #: Finalization cache (incremental mode): the last final subtree
        #: computed for this skeleton node and the key of the inherited
        #: tuples it was computed under (ancestor held-store versions,
        #: final splits and sides; see ``core/finalize.py``).
        self.cached_final = None
        self.cached_key: tuple | None = None
        #: Frontier-deepening backoff: skip re-attempting a mini-BOAT
        #: conversion until the family outgrows this size.
        self.deepen_watermark = 0
        self.class_counts = np.zeros(k, dtype=np.int64)
        self.estimated_family = estimated_family
        self.dirty = True
        # Frontier nodes keep their whole family, so per-attribute counts
        # would be redundant work; internal nodes need them for the checks.
        if criterion is None:
            self.cat_counts = {}
        else:
            self.cat_counts = {
                i: np.zeros((a.domain_size, k), dtype=np.int64)
                for i, a in enumerate(schema.attributes)
                if a.is_categorical
            }
        self.bucket_edges = bucket_edges
        self._bucket_layout: BucketLayout | None = None
        self.bucket_counts = {
            i: np.zeros((len(edges) + 1, k), dtype=np.int64)
            for i, edges in bucket_edges.items()
        }
        #: QUEST internal nodes: (2, n_numeric, k) float64 per-class sums
        #: (``[0]``) and sums of squares (``[1]``), numeric attributes in
        #: schema order.
        self.moments = (
            np.zeros((2, len(schema.numerical_attributes), k))
            if moments and criterion is not None
            else None
        )
        if isinstance(criterion, CoarseNumeric):
            self.below_counts = np.zeros(k, dtype=np.int64)
            self.above_counts = np.zeros(k, dtype=np.int64)
            self.held = TupleStore(
                schema, config.spill_threshold_rows, spill_dir, io_stats
            )
        else:
            self.below_counts = None
            self.above_counts = None
            self.held = None
        if criterion is None:
            self.family_store = TupleStore(
                schema, config.spill_threshold_rows, spill_dir, io_stats
            )
        else:
            self.family_store = None

    @property
    def is_frontier(self) -> bool:
        return self.criterion is None

    @property
    def bucket_layout(self) -> BucketLayout:
        """The node's stacked bucket layout, built on first use."""
        layout = self._bucket_layout
        if layout is None:
            layout = self._bucket_layout = BucketLayout(self.bucket_edges)
        return layout

    def forget_bucket_layout(self) -> None:
        """Drop the cached layout; a node no pass will revisit frees it now."""
        self._bucket_layout = None

    @property
    def n_tuples(self) -> int:
        return int(self.class_counts.sum())

    def children(self) -> tuple["BoatNode", "BoatNode"]:
        if self.left is None or self.right is None:
            raise StorageError(f"BOAT node {self.node_id} has no children")
        return self.left, self.right

    def nodes(self) -> Iterator["BoatNode"]:
        """This node and all descendants, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def release(self) -> None:
        """Drop every store in this subtree (subtree discard / teardown)."""
        for node in self.nodes():
            if node.held is not None:
                node.held.clear()
            if node.family_store is not None:
                node.family_store.clear()

    def __repr__(self) -> str:
        kind = "frontier" if self.is_frontier else str(self.criterion)
        return f"BoatNode(id={self.node_id}, depth={self.depth}, {kind}, n={self.n_tuples})"


# ---------------------------------------------------------------------------
# Streaming accumulation (the cleanup scan, and incremental insert/delete)
# ---------------------------------------------------------------------------


def stream_batch(
    node: BoatNode,
    batch: np.ndarray,
    schema: Schema,
    sign: int = 1,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> None:
    """Stream a batch down the skeleton, updating statistics in place.

    ``sign=+1`` inserts (incremental insertion); ``sign=-1`` deletes
    (incremental deletion) — counts are decremented and matching tuples
    are removed from held/family stores.
    """
    apply_batch_delta(compute_batch_delta(node, batch, schema, kernels), sign)


def _add_counts(node: BoatNode, delta: NodeDelta, sign: int = 1) -> None:
    """Add (``sign=+1``) or retract (``sign=-1``) one delta's statistics.

    Each statistic takes one ``+=`` per batch in scan order, which pins
    the float summation order of QUEST's moments.
    """
    node.dirty = True
    node.class_counts += sign * delta.class_counts
    for index, matrix in delta.cat_counts.items():
        node.cat_counts[index] += sign * matrix
    for index, matrix in delta.bucket_counts.items():
        node.bucket_counts[index] += sign * matrix
    if delta.moments is not None:
        node.moments += sign * delta.moments


def compute_batch_delta(
    root: BoatNode,
    batch: np.ndarray,
    schema: Schema,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> list[NodeDelta]:
    """Route a batch down the skeleton, collecting deltas instead of mutating.

    The read-only half of :func:`stream_batch`: compiles the skeleton
    (:func:`~repro.core.terminals.compile_skeleton`) and runs its batch
    kernel.  Scans that route many batches through one skeleton compile
    it once and call :meth:`~repro.core.terminals.SkeletonPlan.deltas`.
    Deltas come back in preorder, so applying them batch by batch in scan
    order reproduces the same skeleton at any concurrency — including the
    row order of held and family stores.
    """
    return compile_skeleton(root, schema).deltas(batch, kernels)


def apply_batch_delta(deltas: list[NodeDelta], sign: int = 1) -> None:
    """Add (``sign=+1``) or retract (``sign=-1``) one batch's deltas.

    Must run in the parent thread; callers preserve scan order by
    applying whole batches in the order they were scanned.  Retraction
    removes the delta's held/family rows from the node stores.  Every
    store locates its rows before any store or count changes, so a tuple
    that was never inserted raises :class:`StorageError` and leaves every
    count and store as it was.
    """
    if sign < 0:
        for removal in _locate_removals(deltas):
            removal.commit()
    for delta in deltas:
        node = delta.node
        _add_counts(node, delta, sign)
        if delta.below_counts is not None:
            node.below_counts += sign * delta.below_counts
            node.above_counts += sign * delta.above_counts
        if sign > 0:
            if delta.held_rows is not None:
                node.held.append(delta.held_rows)
            if delta.family_rows is not None:
                node.family_store.append(delta.family_rows)


def _locate_removals(deltas: list[NodeDelta]) -> list[StoreRemoval]:
    """Locate every store's retracted rows (one ``locate`` per store)."""
    needles: dict[int, tuple[TupleStore, list[np.ndarray]]] = {}
    for delta in deltas:
        for store, rows in (
            (delta.node.held, delta.held_rows),
            (delta.node.family_store, delta.family_rows),
        ):
            if rows is not None and len(rows):
                needles.setdefault(id(store), (store, []))[1].append(rows)
    return [
        store.locate(parts[0] if len(parts) == 1 else np.concatenate(parts))
        for store, parts in needles.values()
    ]


def multiset_remove(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Remove one occurrence per needle from a record array (bitwise match).

    The earliest matching rows go, found by the matcher
    :meth:`TupleStore.remove` uses
    (:func:`~repro.storage.spill.earliest_matches`).  Raises
    :class:`StorageError` if any needle has no remaining match.
    """
    if len(needles) == 0:
        return haystack
    return np.delete(haystack, earliest_matches(haystack, needles))


# ---------------------------------------------------------------------------
# Effective statistics (finalization pass)
# ---------------------------------------------------------------------------


@dataclass
class EffectiveStats:
    """The node's statistics with ancestor-held tuples routed back in.

    All arrays may alias the node's persistent state when ``inherited`` is
    empty — treat them as read-only.

    Attributes:
        class_counts: family class counts.
        cat_counts: per-categorical-attribute contingency matrices.
        bucket_counts: per-numerical-attribute bucket class counts.
        moments: QUEST's per-class sums and sums of squares (QUEST
            skeletons only, else None).
        below_counts / above_counts: numeric criterion only.
        held: every family tuple inside the confidence interval (own held
            store plus in-interval inherited tuples); numeric criterion
            only, else an empty array.
        inherited_below / inherited_above: inherited tuples continuing to
            the left / right child (numeric criterion), or the subset
            partition of the inherited tuples (categorical criterion).
    """

    class_counts: np.ndarray
    cat_counts: dict[int, np.ndarray]
    bucket_counts: dict[int, np.ndarray]
    moments: np.ndarray | None
    below_counts: np.ndarray | None
    above_counts: np.ndarray | None
    held: np.ndarray
    inherited_below: np.ndarray
    inherited_above: np.ndarray


def effective_stats(
    node: BoatNode,
    inherited: np.ndarray,
    schema: Schema,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> EffectiveStats:
    """Combine persistent statistics with re-routed ancestor-held tuples.

    The inherited tuples are counted with the scan's kernel primitives:
    ``bucket_class_counts`` buckets them with the same exact bucketizer,
    compiled once per node (:meth:`BucketLayout.bucketizer`).
    """
    k = schema.n_classes
    empty = inherited[:0]
    if node.criterion is None:
        below = empty
        above = empty
        held_own = None
    elif isinstance(node.criterion, CoarseCategorical):
        go_left = node.criterion.go_left(inherited, schema, kernels)
        below = inherited[go_left]
        above = inherited[~go_left]
        held_own = None
    else:
        below_mask, held_mask, above_mask = node.criterion.masks(
            inherited, schema, kernels
        )
        below = inherited[below_mask]
        above = inherited[above_mask]
        held_own = inherited[held_mask]

    if len(inherited) == 0:
        class_counts = node.class_counts
        cat_counts = node.cat_counts
        bucket_counts = node.bucket_counts
        moments = node.moments
        below_counts = node.below_counts
        above_counts = node.above_counts
    else:
        labels = inherited[CLASS_COLUMN]
        class_counts = node.class_counts + kernels.class_histogram(labels, k)
        cat_counts = {
            index: matrix
            + kernels.category_class_counts(
                inherited[schema[index].name], labels, matrix.shape[0], k
            )
            for index, matrix in node.cat_counts.items()
        }
        layout = node.bucket_layout
        bucket_counts = {
            index: counts
            + kernels.bucket_class_counts(
                layout.bucketizer(index), inherited[schema[index].name], labels, k
            )
            for index, counts in node.bucket_counts.items()
        }
        moments = node.moments
        if moments is not None:
            moments = moments + numeric_moments(inherited, labels, schema, kernels)
        below_counts = node.below_counts
        above_counts = node.above_counts
        if isinstance(node.criterion, CoarseNumeric):
            below_counts = node.below_counts + kernels.class_histogram(
                below[CLASS_COLUMN], k
            )
            above_counts = node.above_counts + kernels.class_histogram(
                above[CLASS_COLUMN], k
            )

    if isinstance(node.criterion, CoarseNumeric):
        own = node.held.read_all()
        if held_own is not None and len(held_own):
            held = np.concatenate([own, held_own]) if len(own) else held_own
        else:
            held = own
    else:
        held = empty

    return EffectiveStats(
        class_counts=class_counts,
        cat_counts=cat_counts,
        bucket_counts=bucket_counts,
        moments=moments,
        below_counts=below_counts,
        above_counts=above_counts,
        held=held,
        inherited_below=below,
        inherited_above=above,
    )


def collect_family(node: BoatNode, inherited: np.ndarray, schema: Schema) -> np.ndarray:
    """The node's complete family: every store in the subtree + inherited.

    Every tuple that streamed past a node ends up in exactly one store of
    its subtree (a held store, or a frontier family store), so the family
    is recoverable without rescanning the training database — the property
    that makes subtree rebuilds local.
    """
    parts: list[np.ndarray] = []
    if len(inherited):
        parts.append(inherited)
    for sub in node.nodes():
        if sub.held is not None and len(sub.held):
            parts.append(sub.held.read_all())
        if sub.family_store is not None and len(sub.family_store):
            parts.append(sub.family_store.read_all())
    if not parts:
        return schema.empty(0)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
