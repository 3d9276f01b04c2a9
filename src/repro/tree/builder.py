"""The reference greedy top-down tree builder (Figure 1 of the paper).

``TDTree`` applied to an in-memory family: select a split with the given
CL, partition, recurse.  This builder *defines* the target tree — BOAT's
exactness guarantee is "produce exactly what this builder produces on the
full database" — so it is deliberately deterministic, and shares every
candidate-evaluation formula with BOAT (see :mod:`repro.splits.impurity`).
BOAT uses it for its bootstrap trees, frontier completions and subtree
rebuilds.

Two growers produce the same tree:

* :func:`grow_subtree`, the per-node recursion through
  ``method.choose_split`` — used for every method that is not exactly
  :class:`~repro.splits.methods.ImpuritySplitSelection` (QUEST) and for
  the per-row ``python`` kernel backend, which keeps it as the oracle;
* :func:`repro.tree.grower.grow_levelwise`, the level-synchronous split
  search over presorted columns — used for impurity methods on the
  ``numpy`` backend.  It is byte-identical to the recursion (the oracle
  and differential suites prove it) and several times fewer numpy calls.

Node ids follow the recursion's allocation order (both children of a
node, then its left subtree, then its right subtree), but tree equality
never depends on ids.
"""

from __future__ import annotations

import numpy as np

from ..config import SplitConfig
from ..kernels import DEFAULT_KERNELS, KernelBackend, NumpyKernels
from ..splits.base import SplitSelectionMethod
from ..splits.methods import ImpuritySplitSelection
from ..storage import CLASS_COLUMN, Schema
from .grower import grow_levelwise
from .model import DecisionTree, Node


def class_counts(
    family: np.ndarray,
    n_classes: int,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> np.ndarray:
    """Integer class-count vector of a family array."""
    return kernels.class_histogram(family[CLASS_COLUMN], n_classes)


def _method_kernels(method: SplitSelectionMethod) -> KernelBackend:
    """The kernel backend a split selection method carries (numpy default)."""
    return getattr(method, "kernels", DEFAULT_KERNELS)


def _grows_levelwise(method: SplitSelectionMethod, kernels: KernelBackend) -> bool:
    """Whether the level-synchronous grower reproduces ``method``'s tree.

    It reimplements exactly :meth:`ImpuritySplitSelection.choose_split`,
    vectorized with numpy, so any other method (QUEST, a subclass with its
    own ``choose_split``) and any other backend keep the recursion.
    """
    return (
        isinstance(method, ImpuritySplitSelection)
        and type(method).choose_split is ImpuritySplitSelection.choose_split
        and isinstance(kernels, NumpyKernels)
    )


def build_reference_tree(
    family: np.ndarray,
    schema: Schema,
    method: SplitSelectionMethod,
    config: SplitConfig | None = None,
) -> DecisionTree:
    """Grow the greedy tree for an in-memory family.

    Args:
        family: the full training data as one structured array.
        schema: its schema.
        method: the split selection method CL.
        config: stopping rules (defaults to :class:`SplitConfig`()).
    """
    config = config or SplitConfig()
    kernels = _method_kernels(method)
    if _grows_levelwise(method, kernels):
        return grow_levelwise(family, schema, method.impurity, kernels, config)
    root = Node(0, 0, class_counts(family, schema.n_classes, kernels))
    tree = DecisionTree(schema, root)
    grow_subtree(tree, root, family, method, config)
    return tree


def grow_subtree(
    tree: DecisionTree,
    node: Node,
    family: np.ndarray,
    method: SplitSelectionMethod,
    config: SplitConfig,
) -> None:
    """Recursively grow the subtree rooted at ``node`` from its family.

    ``node.class_counts`` must already describe ``family``.  This is the
    per-node path of :func:`build_reference_tree` (QUEST, the ``python``
    oracle) and the reference the level-wise grower is tested against.
    """
    if config.max_depth is not None and node.depth >= config.max_depth:
        return
    decision = method.choose_split(family, tree.schema, config)
    if decision is None:
        return
    kernels = _method_kernels(method)
    go_left = decision.split.evaluate(family, tree.schema)
    left_family = family[go_left]
    right_family = family[~go_left]
    left = tree.new_node(
        node.depth + 1,
        class_counts(left_family, tree.schema.n_classes, kernels),
        node,
    )
    right = tree.new_node(
        node.depth + 1,
        class_counts(right_family, tree.schema.n_classes, kernels),
        node,
    )
    node.make_internal(decision.split, left, right)
    grow_subtree(tree, left, left_family, method, config)
    grow_subtree(tree, right, right_family, method, config)
