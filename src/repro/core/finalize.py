"""BOAT finalization: coarse → exact splitting criteria, with failure detection.

After the cleanup scan, the skeleton is processed top-down (§3.3–§3.5):

1. compute the node's *effective* statistics (persistent counts plus
   ancestor-held tuples re-routed to it),
2. find the exact best split the coarse criterion permits — for a numeric
   criterion, evaluate every candidate value inside the confidence
   interval from the held tuples; for a categorical criterion, evaluate
   the attribute exactly from its contingency matrix,
3. verify, via exact categorical evaluations and the Lemma 3.1 bucket
   lower bounds, that no candidate outside the coarse criterion could be
   the reference builder's choice (§3.4),
4. on success, emit the final split and push the held tuples to the
   children; on failure, discard the subtree and rebuild it from its
   collected family.

Only steps 2–3 depend on the split selection method.  For QUEST (§5) the
decision is recomputed from the node's effective sufficient statistics
(class counts, moments, contingency tables) and refuted when it is a
leaf, picks another attribute or subset, puts the QDA threshold outside
the confidence interval, or leaves a side under ``min_samples_leaf``.
QUEST's moments are float sums accumulated batch by batch, so its tree
equals the reference QUEST tree up to floating-point summation order.

Tie-break bookkeeping mirrors the reference builder exactly: candidates
are ranked by (impurity, attribute index, split value / subset order), so
a competing candidate at an earlier rank triggers a rebuild even on exact
impurity equality, while a later-ranked tie never can.  Lower bounds make
the comparison conservative — false alarms cost a rebuild, never
correctness.

Two operating modes:

* **static** (``keep_state=False``) — one-shot construction; stores of
  finished subtrees are released, rebuilds go straight to the in-memory
  reference builder.
* **incremental** (``keep_state=True``) — §4 maintenance; stores and
  statistics survive the pass, unchanged subtrees are served from a
  per-node cache (so update cost tracks the *change*, not the database
  size), and rebuilds construct a fresh, fully populated skeleton subtree
  from the subtree's own stores so future updates keep working.

The cache is keyed by versions, not contents.  A node's inherited tuples
are a function of its ancestors' held stores and final splits, so the key
of a child is its parent's key plus (the parent's held-store version, the
parent's final split, the side); the root's key is ``()``.  Store
versions are drawn from one process-wide counter
(:attr:`~repro.storage.TupleStore.version`), so equal keys mean equal
inherited tuples.  Static passes compute no key.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..config import SplitConfig, config_at_depth
from ..kernels import DEFAULT_KERNELS
from ..splits.base import CategoricalSplit, NumericSplit
from ..splits.categorical import best_categorical_split_from_counts
from ..splits.numeric import numeric_profile
from ..splits.quest import QuestSplitSelection, QuestSufficientStats
from ..storage import CLASS_COLUMN, Schema
from ..tree import DecisionTree, Node, build_reference_tree
from .bounds import admissible_bucket_mask, bucket_lower_bounds
from .coarse import CoarseCategorical, CoarseNumeric
from .discretize import interval_bucket_range
from .state import (
    BoatMethod,
    BoatNode,
    EffectiveStats,
    collect_family,
    effective_stats,
)

#: The finalize layers a timed pass charges, as ``finalize`` span
#: attributes: seconds in effective statistics, the exact in-criterion
#: search, the §3.4 check, the partition of held tuples for the children,
#: and in-memory frontier completions.  They never nest, so they sum to
#: at most the pass's wall time.
LAYERS = ("effective_stats_s", "exact_best_s", "verify_s", "partition_s", "frontier_s")

#: The disabled layer timer: one shared no-op context, no clock read.
_UNTIMED = contextlib.nullcontext()


class _Stopwatch:
    """Adds the wall time of one ``with`` block to ``seconds[name]``."""

    __slots__ = ("_seconds", "_name", "_start")

    def __init__(self, seconds: dict[str, float], name: str):
        self._seconds = seconds
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        self._seconds[self._name] += time.perf_counter() - self._start
        return False

#: Static rebuild strategy: collected family + depth -> finished subtree.
RebuildFn = Callable[[np.ndarray, int], Node]

#: Incremental rebuild strategy: (store-resident family, depth,
#: force_frontier) -> fresh, fully populated skeleton subtree.  The
#: force_frontier flag demands a plain frontier node; the finalizer sets
#: it when a freshly rebuilt subtree fails verification again, which
#: guarantees termination (frontier completion never re-verifies).
SkeletonRebuildFn = Callable[[np.ndarray, int, bool], BoatNode]


@dataclass
class FinalizeReport:
    """What happened during one finalization pass."""

    confirmed_splits: int = 0
    leaves: int = 0
    frontier_completions: int = 0
    cache_hits: int = 0
    rebuilds: int = 0
    rebuilt_tuples: int = 0
    rebuild_reasons: list[str] = field(default_factory=list)
    held_candidates: int = 0
    #: Seconds per finalize layer (:data:`LAYERS`); empty unless the pass
    #: was timed.
    layer_seconds: dict[str, float] = field(default_factory=dict)


class Finalizer:
    """One finalization pass over a populated skeleton."""

    def __init__(
        self,
        schema: Schema,
        method: BoatMethod,
        config: SplitConfig,
        rebuild: RebuildFn | None = None,
        keep_state: bool = False,
        skeleton_rebuild: SkeletonRebuildFn | None = None,
        id_counter: Iterator[int] | None = None,
        timed: bool = False,
    ):
        self._schema = schema
        self._method = method
        self._quest = isinstance(method, QuestSplitSelection)
        #: The method-specific step: node statistics -> split, leaf
        #: (None) or a refutation reason (str).
        self._decide = self._quest_decide if self._quest else self._impurity_decide
        self._impurity = getattr(method, "impurity", None)
        self._kernels = getattr(method, "kernels", DEFAULT_KERNELS)
        self._config = config
        self._rebuild = rebuild or reference_rebuild(schema, method, config)
        self._keep_state = keep_state
        self._skeleton_rebuild = skeleton_rebuild
        self._ids = id_counter if id_counter is not None else itertools.count()
        self._fresh_nodes: set[int] = set()
        self.report = FinalizeReport()
        self._timed = timed
        if timed:
            self.report.layer_seconds = dict.fromkeys(LAYERS, 0.0)
        #: Set when the skeleton root itself was replaced by a rebuild.
        self.new_root: BoatNode | None = None

    # -- public entry -------------------------------------------------------

    def run(self, root: BoatNode) -> DecisionTree:
        key = () if self._keep_state else None
        final_root = self._finalize(root, self._schema.empty(0), key, is_root=True)
        tree = DecisionTree(self._schema, final_root)
        return tree

    # -- recursion ------------------------------------------------------------

    def _finalize(
        self,
        node: BoatNode,
        inherited: np.ndarray,
        key: tuple | None,
        is_root: bool = False,
    ) -> Node:
        """``key`` names ``inherited`` (None in a static pass)."""
        if not self._keep_state:
            return self._compute(node, inherited, key, is_root)
        if not node.dirty and node.cached_final is not None and node.cached_key == key:
            self.report.cache_hits += 1
            return self._clone_subtree(node.cached_final)
        final = self._compute(node, inherited, key, is_root)
        node.cached_final = final
        node.cached_key = key
        node.dirty = False
        return self._clone_subtree(final)

    def _layer(self, name: str):
        """A context charging its block to layer ``name`` when timed."""
        if self._timed:
            return _Stopwatch(self.report.layer_seconds, name)
        return _UNTIMED

    def _compute(
        self, node: BoatNode, inherited: np.ndarray, key: tuple | None, is_root: bool
    ) -> Node:
        with self._layer("effective_stats_s"):
            stats = effective_stats(node, inherited, self._schema, self._kernels)
        counts = np.asarray(stats.class_counts, dtype=np.int64)
        if node.is_frontier:
            with self._layer("frontier_s"):
                return self._complete_frontier(node, inherited, counts)
        # Absolute leaf conditions — identical to the reference builder's.
        max_depth = self._config.max_depth
        if (
            int(counts.sum()) < self._config.min_samples_split
            or np.count_nonzero(counts) <= 1
            or (max_depth is not None and node.depth >= max_depth)
        ):
            return self._confirmed_leaf(node, counts)
        decided = self._decide(node, stats, counts)
        if not self._keep_state:
            node.forget_bucket_layout()  # a static pass never comes back
        if isinstance(decided, str):
            return self._rebuild_subtree(node, inherited, key, decided, is_root)
        if decided is None:
            return self._confirmed_leaf(node, counts)
        with self._layer("partition_s"):
            left_in, right_in = self._partition_for_children(node, stats, decided)
        left_node, right_node = node.children()
        if self._quest:
            # QUEST's decision ignores side sizes; the reference builder
            # refuses a split leaving a side under min_samples_leaf.
            smallest = min(
                left_node.n_tuples + len(left_in),
                right_node.n_tuples + len(right_in),
            )
            if smallest < self._config.min_samples_leaf:
                return self._rebuild_subtree(
                    node,
                    inherited,
                    key,
                    "QUEST split violates min_samples_leaf",
                    is_root,
                )
        self.report.confirmed_splits += 1
        final = self._leaf(node.depth, counts)
        if key is None:
            left_key = right_key = None
        else:
            held = None if node.held is None else node.held.version
            left_key = key + ((held, decided, 0),)
            right_key = key + ((held, decided, 1),)
        final.make_internal(
            decided,
            self._finalize(left_node, left_in, left_key),
            self._finalize(right_node, right_in, right_key),
        )
        return final

    def _impurity_decide(
        self, node: BoatNode, stats: EffectiveStats, counts: np.ndarray
    ) -> NumericSplit | CategoricalSplit | str | None:
        """The verified exact split, None for a leaf, or a refutation reason."""
        with self._layer("exact_best_s"):
            outcome = self._exact_best(node, stats, counts)
        if outcome is None:
            return "categorical coarse subset refuted"
        final_split, threshold, is_leaf_decision = outcome
        with self._layer("verify_s"):
            failure = self._verify(node, stats, counts, threshold, is_leaf_decision)
        if failure is not None:
            return failure
        return None if is_leaf_decision else final_split

    def _quest_decide(
        self, node: BoatNode, stats: EffectiveStats, counts: np.ndarray
    ) -> NumericSplit | CategoricalSplit | str:
        """QUEST's exact decision from the effective sufficient statistics.

        Returns the split when the coarse criterion admits it, else a
        refutation reason (a leaf decision refutes too: the reference
        builder would stop here, which the rebuild reproduces).
        """
        schema = self._schema
        quest_stats = QuestSufficientStats(
            schema,
            counts,
            stats.moments[0],
            stats.moments[1],
            [
                stats.cat_counts[i]
                for i, attr in enumerate(schema.attributes)
                if attr.is_categorical
            ],
        )
        with self._layer("exact_best_s"):
            decision = self._method.decide_from_stats(quest_stats, self._config)
        if decision is None:
            return "exact QUEST decision is a leaf, coarse criterion splits"
        split = decision.split
        criterion = node.criterion
        if split.attribute_index != criterion.attribute_index:
            name = schema[split.attribute_index].name
            return f"exact QUEST selection picked attribute {name}"
        if isinstance(criterion, CoarseCategorical):
            if split.subset != criterion.subset:
                return "exact QUEST categorical subset differs"
        elif not criterion.low <= split.value <= criterion.high:
            return (
                f"exact QDA threshold {split.value:g} outside confidence "
                f"interval [{criterion.low:g}, {criterion.high:g}]"
            )
        return split

    # -- pieces ------------------------------------------------------------------

    def _leaf(self, depth: int, counts: np.ndarray) -> Node:
        return Node(next(self._ids), depth, counts)

    def _confirmed_leaf(self, node: BoatNode, counts: np.ndarray) -> Node:
        self.report.leaves += 1
        if not self._keep_state:
            # Static construction never revisits the subtree; free its
            # stores.  Incremental maintenance keeps them: later inserts
            # can turn the leaf back into a split.
            if node.left is not None:
                node.left.release()
            if node.right is not None:
                node.right.release()
        return self._leaf(node.depth, counts)

    def _complete_frontier(
        self, node: BoatNode, inherited: np.ndarray, counts: np.ndarray
    ) -> Node:
        # Certain-leaf fast path: pure, undersized or depth-capped families
        # become leaves without touching the (possibly spilled) store.
        max_depth = self._config.max_depth
        if (
            int(counts.sum()) < self._config.min_samples_split
            or np.count_nonzero(counts) <= 1
            or (max_depth is not None and node.depth >= max_depth)
        ):
            self.report.leaves += 1
            return self._leaf(node.depth, counts)
        self.report.frontier_completions += 1
        family = collect_family(node, inherited, self._schema)
        sub = build_reference_tree(
            family, self._schema, self._method, config_at_depth(self._config, node.depth)
        )
        return self._graft(sub.root, node.depth)

    def _graft(self, root: Node, depth_offset: int) -> Node:
        """Renumber ids and shift depths of a separately built subtree."""
        for sub in _preorder(root):
            sub.node_id = next(self._ids)
            sub.depth += depth_offset
        return root

    def _clone_subtree(self, root: Node) -> Node:
        """Structure-copy a cached subtree with fresh node ids.

        Class-count arrays are shared (read-only by convention); Node
        objects are fresh so successive tree snapshots stay independent.
        """
        clone = Node(next(self._ids), root.depth, root.class_counts)
        if not root.is_leaf:
            clone.make_internal(
                root.split,
                self._clone_subtree(root.left),
                self._clone_subtree(root.right),
            )
        return clone

    def _rebuild_subtree(
        self,
        node: BoatNode,
        inherited: np.ndarray,
        key: tuple | None,
        reason: str,
        is_root: bool,
    ) -> Node:
        self.report.rebuilds += 1
        self.report.rebuild_reasons.append(
            f"node {node.node_id} (depth {node.depth}): {reason}"
        )
        if self._keep_state and self._skeleton_rebuild is not None:
            # Rebuild the skeleton from the subtree's *stores* only;
            # ancestor-held tuples stay at their ancestors and keep being
            # re-routed non-destructively on every pass.  If this subtree
            # was itself produced by a rebuild in this very pass, force a
            # frontier node — its in-memory completion never re-verifies,
            # so rebuilding terminates even on pathological plateaus.
            force_frontier = node.node_id in self._fresh_nodes
            own_family = collect_family(node, self._schema.empty(0), self._schema)
            self.report.rebuilt_tuples += len(own_family) + len(inherited)
            node.release()
            fresh = self._skeleton_rebuild(own_family, node.depth, force_frontier)
            self._fresh_nodes.update(sub.node_id for sub in fresh.nodes())
            self._swap_skeleton(node, fresh, is_root)
            # The fresh subtree fills the same slot: same inherited tuples.
            return self._finalize(fresh, inherited, key)
        family = collect_family(node, inherited, self._schema)
        self.report.rebuilt_tuples += len(family)
        node.release()
        rebuilt = self._rebuild(family, node.depth)
        return self._graft(rebuilt, 0)

    def _swap_skeleton(self, old: BoatNode, fresh: BoatNode, is_root: bool) -> None:
        parent = old.parent
        fresh.parent = parent
        if parent is None or is_root:
            self.new_root = fresh
            return
        if parent.left is old:
            parent.left = fresh
        elif parent.right is old:
            parent.right = fresh
        else:  # pragma: no cover - defensive
            raise RuntimeError("skeleton parent link broken")

    def _exact_best(
        self, node: BoatNode, stats: EffectiveStats, counts: np.ndarray
    ) -> tuple[NumericSplit | CategoricalSplit | None, float, bool] | None:
        """Exact best split permitted by the coarse criterion.

        Returns ``(split, comparison threshold, leaf?)``; ``None`` means
        the coarse criterion is already refuted (categorical subset
        mismatch) and the subtree must be rebuilt.  ``leaf?`` flags a
        zero-gain / no-candidate leaf decision, pending verification.
        """
        node_imp = self._impurity.node_impurity(counts)
        criterion = node.criterion
        if isinstance(criterion, CoarseNumeric):
            held = stats.held
            self.report.held_candidates += len(held)
            attr_name = self._schema[criterion.attribute_index].name
            profile = numeric_profile(
                held[attr_name],
                held[CLASS_COLUMN],
                self._schema.n_classes,
                self._impurity,
                self._config.min_samples_leaf,
                base_left=stats.below_counts,
                total_counts=counts,
                kernels=self._kernels,
            )
            found = profile.best()
            if found is None or not found[0] < node_imp:
                return (None, node_imp, True)
            return (NumericSplit(criterion.attribute_index, found[1]), found[0], False)
        found = best_categorical_split_from_counts(
            stats.cat_counts[criterion.attribute_index],
            self._impurity,
            self._config.min_samples_leaf,
            self._config.max_categorical_exhaustive,
            kernels=self._kernels,
        )
        if found is None or not found[0] < node_imp:
            return (None, node_imp, True)
        if found[1] != criterion.subset:
            # The exact best subset differs from the coarse subset: the
            # children's statistics were accumulated under the wrong
            # routing, so nothing below this node can be salvaged.
            return None
        return (CategoricalSplit(criterion.attribute_index, found[1]), found[0], False)

    def _verify(
        self,
        node: BoatNode,
        stats: EffectiveStats,
        counts: np.ndarray,
        threshold: float,
        is_leaf_decision: bool,
    ) -> str | None:
        """§3.4 failure detection.  Returns a reason string, or None if ok.

        ``threshold`` is i' (or the node impurity for a pending leaf
        decision).  A competing candidate *earlier* in the reference
        builder's tie-break order refutes the criterion already on exact
        equality; a later one only when strictly better.  A pending leaf
        is refuted by any strict improvement anywhere.

        Every numeric attribute is checked in one stacked bound
        (:meth:`_numeric_failure`); categorical attributes are searched
        one by one, in schema order, up to the first failing numeric
        attribute.  The reason is the first failing attribute's.
        """
        coarse_index = node.criterion.attribute_index
        numeric = self._numeric_failure(
            node, stats, counts, threshold, is_leaf_decision
        )
        limit = len(self._schema.attributes) if numeric is None else numeric[0]
        for index in range(limit):
            attr = self._schema[index]
            if not attr.is_categorical or index == coarse_index:
                continue  # the coarse attribute is evaluated exactly in _exact_best
            found = best_categorical_split_from_counts(
                stats.cat_counts[index],
                self._impurity,
                self._config.min_samples_leaf,
                self._config.max_categorical_exhaustive,
                kernels=self._kernels,
            )
            if found is not None and self._beats(
                found[0], index, coarse_index, threshold, is_leaf_decision
            ):
                return (
                    f"categorical attribute {attr.name} reaches impurity "
                    f"{found[0]:.6g} vs threshold {threshold:.6g}"
                )
        return None if numeric is None else numeric[1]

    def _numeric_failure(
        self,
        node: BoatNode,
        stats: EffectiveStats,
        counts: np.ndarray,
        threshold: float,
        is_leaf_decision: bool,
    ) -> tuple[int, str] | None:
        """The first numeric attribute whose buckets refute the decision.

        All numeric attributes' bucket counts are stacked in the node's
        :class:`~repro.core.state.BucketLayout` and bounded in one
        :func:`bucket_lower_bounds` call (point buckets exactly); the tie
        rules are per-row masks.  Returns ``(attribute index, reason)``.
        """
        layout = node.bucket_layout
        if not layout.indices:
            return None
        stacked = np.concatenate([stats.bucket_counts[i] for i in layout.indices])
        bounds = bucket_lower_bounds(
            stacked, counts, self._impurity, layout.starts, layout.point
        )
        admissible = admissible_bucket_mask(
            stacked, self._config.min_samples_leaf, layout.starts
        )
        criterion = node.criterion
        if is_leaf_decision:
            beaten = bounds < threshold
        else:
            # Attributes before the coarse one win exact ties against it.
            beaten = np.where(
                layout.attribute_of_row < criterion.attribute_index,
                bounds <= threshold,
                bounds < threshold,
            )
        failing = admissible & beaten
        coarse = None
        if isinstance(criterion, CoarseNumeric):
            index = criterion.attribute_index
            lo = int(layout.starts[layout.indices.index(index)])
            hi = lo + len(node.bucket_edges[index]) + 1
            failing[lo:hi] = False
            reason = self._coarse_failure(
                criterion,
                node.bucket_edges[index],
                bounds[lo:hi],
                admissible[lo:hi],
                threshold,
                is_leaf_decision,
            )
            if reason is not None:
                coarse = (index, reason)
        segments = np.logical_or.reduceat(failing, layout.starts)
        if segments.any():
            index = layout.indices[int(np.argmax(segments))]
            if coarse is None or index < coarse[0]:
                return index, (
                    f"numerical attribute {self._schema[index].name}: a bucket "
                    f"lower bound undercuts threshold {threshold:.6g}"
                )
        return coarse

    def _coarse_failure(
        self,
        criterion: CoarseNumeric,
        edges: np.ndarray,
        bounds: np.ndarray,
        admissible: np.ndarray,
        threshold: float,
        is_leaf_decision: bool,
    ) -> str | None:
        """The check outside the coarse attribute's confidence interval."""
        name = self._schema[criterion.attribute_index].name
        first, last = interval_bucket_range(edges, criterion.low, criterion.high)
        below = admissible.copy()
        below[first:] = False
        above = admissible.copy()
        above[:last] = False
        if is_leaf_decision:
            if np.any((below | above) & (bounds < threshold)):
                return (
                    f"split attribute {name}: leaf decision but a "
                    f"bucket bound < node impurity {threshold:.6g}"
                )
            return None
        # Below-interval values precede the chosen split value, so they
        # win exact ties; above-interval values lose them.
        if np.any(below & (bounds <= threshold)):
            return (
                f"split attribute {name}: bucket below the "
                f"confidence interval bounds <= {threshold:.6g}"
            )
        if np.any(above & (bounds < threshold)):
            return (
                f"split attribute {name}: bucket above the "
                f"confidence interval bounds < {threshold:.6g}"
            )
        return None

    def _beats(
        self,
        value: float,
        index: int,
        coarse_index: int,
        threshold: float,
        is_leaf_decision: bool,
    ) -> bool:
        if is_leaf_decision:
            return value < threshold
        if index < coarse_index:
            return value <= threshold
        return value < threshold

    def _partition_for_children(
        self,
        node: BoatNode,
        stats: EffectiveStats,
        final_split: NumericSplit | CategoricalSplit,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inherited arrays for the two children under the final split."""
        if isinstance(final_split, CategoricalSplit):
            return stats.inherited_below, stats.inherited_above
        held = stats.held
        go_left = (
            held[self._schema[final_split.attribute_index].name]
            <= final_split.value
        )
        left = _concat(stats.inherited_below, held[go_left])
        right = _concat(stats.inherited_above, held[~go_left])
        return left, right


def _concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return np.concatenate([a, b])


def _preorder(root: Node) -> Iterator[Node]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)


def reference_rebuild(
    schema: Schema, method: BoatMethod, config: SplitConfig
) -> RebuildFn:
    """The default static rebuild strategy: the in-memory reference builder."""

    def rebuild(family: np.ndarray, depth: int) -> Node:
        sub = build_reference_tree(
            family, schema, method, config_at_depth(config, depth)
        )
        for node in _preorder(sub.root):
            node.depth += depth
        return sub.root

    return rebuild


def finalize_tree(
    root: BoatNode,
    schema: Schema,
    method: BoatMethod,
    config: SplitConfig,
    rebuild: RebuildFn | None = None,
    timed: bool = False,
) -> tuple[DecisionTree, FinalizeReport]:
    """Run one static finalization pass over a populated skeleton.

    ``method`` is the split selection the skeleton was sampled with
    (impurity-based or QUEST); ``rebuild`` defaults to the in-memory
    reference builder.  ``timed`` fills ``report.layer_seconds``.
    """
    finalizer = Finalizer(schema, method, config, rebuild, timed=timed)
    tree = finalizer.run(root)
    tree.validate()
    return tree, finalizer.report
