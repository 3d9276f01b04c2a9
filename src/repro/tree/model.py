"""The binary decision tree model.

A :class:`DecisionTree` is a classifier: every internal node carries a
splitting criterion (:class:`~repro.splits.base.Split`; the predicate
routes left on true), every leaf a class label.  Nodes also carry the
family statistics (size, class counts) the algorithms computed, which the
comparison and maintenance code relies on.

Trees are built by algorithms in :mod:`repro.tree.builder`,
:mod:`repro.core` and :mod:`repro.rainforest`; user code mostly calls
:meth:`DecisionTree.predict` and the inspection helpers.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..exceptions import TreeStructureError
from ..splits.base import Split, majority_label
from ..storage import Schema


class Node:
    """One node of a binary decision tree.

    A node is a leaf iff ``split is None``; internal nodes have exactly two
    children.  ``class_counts`` always reflects the node's family.
    """

    __slots__ = (
        "node_id",
        "depth",
        "split",
        "left",
        "right",
        "parent",
        "class_counts",
        "extra",
    )

    def __init__(
        self,
        node_id: int,
        depth: int,
        class_counts: np.ndarray,
        parent: "Node | None" = None,
    ):
        self.node_id = node_id
        self.depth = depth
        self.split: Split | None = None
        self.left: Node | None = None
        self.right: Node | None = None
        self.parent = parent
        self.class_counts = np.asarray(class_counts, dtype=np.int64)
        #: Scratch slot for algorithm-specific per-node state (BOAT uses it).
        self.extra: object | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def n_tuples(self) -> int:
        return int(self.class_counts.sum())

    @property
    def label(self) -> int:
        """Deterministic majority label (meaningful for any node)."""
        return majority_label(self.class_counts)

    def children(self) -> tuple["Node", "Node"]:
        if self.left is None or self.right is None:
            raise TreeStructureError(f"node {self.node_id} has no children")
        return self.left, self.right

    def make_internal(self, split: Split, left: "Node", right: "Node") -> None:
        """Turn this node into an internal node with the given split."""
        self.split = split
        self.left = left
        self.right = right
        left.parent = self
        right.parent = self

    def make_leaf(self) -> None:
        """Turn this node (back) into a leaf, dropping any subtree."""
        self.split = None
        self.left = None
        self.right = None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"split={self.split}"
        return f"Node(id={self.node_id}, depth={self.depth}, {kind}, n={self.n_tuples})"


class DecisionTree:
    """A binary decision tree classifier over a fixed schema."""

    def __init__(self, schema: Schema, root: Node):
        self._schema = schema
        self._root = root
        self._next_id = 1 + max(n.node_id for n in _preorder(root))

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def root(self) -> Node:
        return self._root

    # -- construction helpers ------------------------------------------------

    def allocate_id(self) -> int:
        """A fresh node id (monotone; never reused within this tree)."""
        nid = self._next_id
        self._next_id += 1
        return nid

    def new_node(
        self, depth: int, class_counts: np.ndarray, parent: Node | None = None
    ) -> Node:
        return Node(self.allocate_id(), depth, class_counts, parent)

    # -- traversal -------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """All nodes, preorder (parents before children, left before right)."""
        return _preorder(self._root)

    def leaves(self) -> Iterator[Node]:
        return (n for n in self.nodes() if n.is_leaf)

    def internal_nodes(self) -> Iterator[Node]:
        return (n for n in self.nodes() if not n.is_leaf)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def depth(self) -> int:
        return max((n.depth for n in self.leaves()), default=0)

    def node_by_id(self, node_id: int) -> Node:
        for node in self.nodes():
            if node.node_id == node_id:
                return node
        raise TreeStructureError(f"no node with id {node_id}")

    # -- classification ----------------------------------------------------------

    def compile(self):
        """Flatten into a :class:`~repro.serve.CompiledPredictor`.

        The compiled form routes whole batches iteratively over contiguous
        arrays — no Python-object traversal — and is what the serving
        layer publishes.  It is a snapshot: recompile after mutating the
        tree.
        """
        from ..serve.compiled import CompiledPredictor

        return CompiledPredictor.from_tree(self)

    def route(self, batch: np.ndarray) -> np.ndarray:
        """Leaf node id for each record of ``batch``.

        Routed through the compiled array kernel
        (:class:`~repro.serve.CompiledPredictor`) — the same kernel the
        serving layer uses, so the level-wise cleanup scans and live
        inference exercise one implementation.  :meth:`route_recursive`
        keeps the Node-walking reference path; the two agree exactly.
        """
        return self.compile().route(batch)

    def route_recursive(self, batch: np.ndarray) -> np.ndarray:
        """Reference implementation of :meth:`route` (recursive Node walk)."""
        out = np.empty(len(batch), dtype=np.int64)
        for leaf, indices in self._walk(batch):
            out[indices] = leaf.node_id
        return out

    def _walk(self, batch: np.ndarray) -> Iterator[tuple[Node, np.ndarray]]:
        """Each leaf reached by ``batch``, with the row indices reaching it.

        The one recursive Node walk: :meth:`route_recursive`,
        :meth:`predict` and :meth:`predict_proba` fill their outputs
        from it, and the compiled kernel is checked against it.
        """

        def walk(node: Node, indices: np.ndarray):
            if indices.size == 0:
                return
            if node.is_leaf:
                yield node, indices
                return
            go_left = node.split.evaluate(batch[indices], self._schema)
            left, right = node.children()
            yield from walk(left, indices[go_left])
            yield from walk(right, indices[~go_left])

        return walk(self._root, np.arange(len(batch)))

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Predicted class labels for a batch (vectorized)."""
        labels = np.empty(len(batch), dtype=np.int32)
        for leaf, indices in self._walk(batch):
            labels[indices] = leaf.label
        return labels

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf training distributions.

        Returns an (n, k) float64 array; rows for tuples reaching an
        empty leaf (possible after aggressive pruning) fall back to the
        uniform distribution.
        """
        k = len(self._root.class_counts)
        out = np.empty((len(batch), k), dtype=np.float64)
        for leaf, indices in self._walk(batch):
            total = leaf.class_counts.sum()
            if total > 0:
                out[indices] = leaf.class_counts / total
            else:
                out[indices] = 1.0 / len(leaf.class_counts)
        return out

    def misclassification_rate(self, batch: np.ndarray) -> float:
        """Fraction of ``batch`` whose predicted label differs from its label."""
        from ..storage import CLASS_COLUMN

        if len(batch) == 0:
            return 0.0
        return float(np.mean(self.predict(batch) != batch[CLASS_COLUMN]))

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TreeStructureError` on structural inconsistencies."""
        seen: set[int] = set()
        for node in self.nodes():
            if node.node_id in seen:
                raise TreeStructureError(f"duplicate node id {node.node_id}")
            seen.add(node.node_id)
            if node.is_leaf:
                if node.left is not None or node.right is not None:
                    raise TreeStructureError(
                        f"leaf {node.node_id} has children"
                    )
            else:
                left, right = node.children()
                for child in (left, right):
                    if child.depth != node.depth + 1:
                        raise TreeStructureError(
                            f"node {child.node_id} depth {child.depth} != "
                            f"parent depth {node.depth} + 1"
                        )
                    if child.parent is not node:
                        raise TreeStructureError(
                            f"node {child.node_id} has wrong parent link"
                        )
                index = node.split.attribute_index
                if not 0 <= index < self._schema.n_attributes:
                    raise TreeStructureError(
                        f"node {node.node_id} splits on bad attribute {index}"
                    )

    def map_nodes(self, fn: Callable[[Node], None]) -> None:
        """Apply ``fn`` to every node, preorder."""
        for node in self.nodes():
            fn(node)


def _preorder(root: Node) -> Iterator[Node]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
