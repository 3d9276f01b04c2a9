"""The incremental finalize cache, keyed by store versions.

A child's key is its parent's key plus (the parent's held-store version,
the parent's final split, the side).  These tests pin the three cases
that matter: a change held only at an ancestor must recompute the
(unchanged) child, an update that misses a subtree and every ancestor's
held store must reuse it, and a static pass computes no key at all.
"""

import numpy as np

from repro.config import BoatConfig, SplitConfig
from repro.core import BoatNode, CoarseNumeric, Finalizer, finalize_tree, stream_batch
from repro.core.discretize import interval_forced_edges
from repro.splits import ImpuritySplitSelection
from repro.storage import CLASS_COLUMN, Attribute, Schema, TupleStore
from repro.tree import build_reference_tree, trees_equal

GINI = ImpuritySplitSelection("gini")
CONFIG = BoatConfig(sample_size=100, bootstrap_repetitions=2)
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5)
SCHEMA = Schema([Attribute.numerical("a")], n_classes=2)


def rows(values) -> np.ndarray:
    """Rows labelled by the rule ``a >= 50``."""
    values = np.asarray(values, dtype=np.float64)
    data = SCHEMA.empty(len(values))
    data["a"] = values
    data[CLASS_COLUMN] = (values >= 50).astype(np.int32)
    return data


def skeleton() -> BoatNode:
    """A numeric root holding [45, 55], with two frontier children."""
    edges = {0: np.array(sorted({20.0, 80.0, *interval_forced_edges(45.0, 55.0)}))}
    root = BoatNode(0, 0, CoarseNumeric(0, 45.0, 55.0), SCHEMA, edges, CONFIG)
    root.left = BoatNode(1, 1, None, SCHEMA, {}, CONFIG)
    root.right = BoatNode(2, 1, None, SCHEMA, {}, CONFIG)
    root.left.parent = root.right.parent = root
    return root


def finalize(root: BoatNode):
    finalizer = Finalizer(SCHEMA, GINI, SPLIT, keep_state=True)
    return finalizer.run(root), finalizer.report


def test_insert_held_at_the_root_recomputes_the_unchanged_child():
    data = rows(np.linspace(0, 100, 401))
    root = skeleton()
    stream_batch(root, data, SCHEMA)
    finalize(root)
    held = rows([46.1, 47.3, 51.7, 53.9])  # all inside the root's interval
    stream_batch(root, held, SCHEMA)
    assert root.dirty and not root.left.dirty and not root.right.dirty
    tree, report = finalize(root)
    # The children's own statistics did not change, but the tuples they
    # inherit from the root's held store did: no cache hit is allowed.
    assert report.cache_hits == 0
    everything = np.concatenate([data, held])
    assert trees_equal(tree, build_reference_tree(everything, SCHEMA, GINI, SPLIT))


def test_update_that_misses_a_subtree_and_its_ancestors_held_stores_hits():
    data = rows(np.linspace(0, 100, 401))
    root = skeleton()
    stream_batch(root, data, SCHEMA)
    finalize(root)
    right_key = root.right.cached_key
    below = rows([1.5, 7.25, 12.0, 33.3])  # below the interval: left child only
    stream_batch(root, below, SCHEMA)
    assert not root.right.dirty
    tree, report = finalize(root)
    assert report.cache_hits > 0
    assert root.right.cached_key == right_key
    everything = np.concatenate([data, below])
    assert trees_equal(tree, build_reference_tree(everything, SCHEMA, GINI, SPLIT))


def test_static_pass_computes_no_key():
    root = skeleton()
    stream_batch(root, rows(np.linspace(0, 100, 401)), SCHEMA)
    finalize_tree(root, SCHEMA, GINI, SPLIT)
    for node in root.nodes():
        assert node.cached_key is None
        assert node.cached_final is None


def test_store_versions_never_repeat_across_stores():
    first, second = TupleStore(SCHEMA), TupleStore(SCHEMA)
    seen = {first.version, second.version}
    first.append(rows([1.0, 2.0]))
    second.append(rows([1.0, 2.0]))
    seen |= {first.version, second.version}
    first.remove(rows([1.0]))
    seen.add(first.version)
    first.clear()
    seen.add(first.version)
    assert len(seen) == 6
    unchanged = second.version
    second.read_all()
    assert second.version == unchanged
