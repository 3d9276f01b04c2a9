"""The terminal-partition cleanup kernel ≡ the per-node skeleton walk.

:meth:`~repro.core.terminals.SkeletonPlan.deltas` (behind
:func:`~repro.core.compute_batch_delta`) routes a batch once, counts per
terminal and derives every node's statistics from prefix sums.  These
tests hold it to the recursion it replaced, kept here as a test-local
oracle (:func:`walk_deltas`): same delta order, the same count arrays
(dtype included), byte-identical held/family rows and QUEST moment bits,
on real skeletons of Agrawal F1–F10, categorical roots, QUEST, all-held
batches, NaN rows, 1-row and empty batches and nodes no row reaches.  It
also checks the kernel's memory peak, and that the configured kernel
backend reaches the cleanup of cross-validation and incremental updates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import (
    BoatNode,
    CoarseCategorical,
    CoarseNumeric,
    IncrementalBoat,
    NodeDelta,
    boat_cross_validate,
    compute_batch_delta,
    sampling_phase,
)
from repro.core.terminals import compile_skeleton
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.datagen.agrawal import drifted_function_1
from repro.kernels import NumpyKernels, PythonKernels
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import CLASS_COLUMN, MemoryTable
from repro.tree.serialize import tree_to_json

from .conftest import simple_xy_data

pytestmark = pytest.mark.kernels

NUMPY = NumpyKernels()
PYTHON = PythonKernels()
GINI = ImpuritySplitSelection("gini")
CONFIG = BoatConfig(sample_size=100, bootstrap_repetitions=2)


# -- the oracle: the per-node recursion the kernel replaced -----------------


def walk_deltas(root: BoatNode, batch: np.ndarray, schema) -> list[NodeDelta]:
    out: list[NodeDelta] = []
    _walk(root, batch, schema, out)
    return out


def _walk(node: BoatNode, batch: np.ndarray, schema, out: list) -> None:
    if batch.size == 0:
        return
    labels = batch[CLASS_COLUMN]
    k = schema.n_classes
    buckets = {}
    for index, edges in node.bucket_edges.items():
        keys = np.searchsorted(edges, batch[schema[index].name], side="left") * k
        flat = np.bincount(keys + labels, minlength=(len(edges) + 1) * k)
        buckets[index] = flat.reshape(len(edges) + 1, k)
    delta = NodeDelta(
        node,
        NUMPY.class_histogram(labels, k),
        {
            index: NUMPY.category_class_counts(
                batch[schema[index].name], labels, matrix.shape[0], k
            )
            for index, matrix in node.cat_counts.items()
        },
        buckets,
    )
    if node.moments is not None:
        moments = np.empty((2, len(schema.numerical_attributes), k))
        for i, attr in enumerate(schema.numerical_attributes):
            moments[0, i], moments[1, i] = NUMPY.quest_numeric_moments(
                batch[attr.name], labels, k
            )
        delta.moments = moments
    out.append(delta)
    if node.criterion is None:
        delta.family_rows = batch
        return
    left, right = node.children()
    if isinstance(node.criterion, CoarseCategorical):
        go_left = node.criterion.go_left(batch, schema)
        _walk(left, batch[go_left], schema, out)
        _walk(right, batch[~go_left], schema, out)
        return
    below, held, above = node.criterion.masks(batch, schema)
    delta.below_counts = NUMPY.class_histogram(labels[below], k)
    delta.above_counts = NUMPY.class_histogram(labels[above], k)
    if held.any():
        delta.held_rows = batch[held]
    _walk(left, batch[below], schema, out)
    _walk(right, batch[above], schema, out)


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_deltas(got: list[NodeDelta], want: list[NodeDelta]) -> None:
    assert [d.node.node_id for d in got] == [d.node.node_id for d in want]
    for g, w in zip(got, want):
        assert g.node is w.node
        assert _same_array(g.class_counts, w.class_counts)
        for field in ("cat_counts", "bucket_counts"):
            gd, wd = getattr(g, field), getattr(w, field)
            assert list(gd) == list(wd), field
            for index in wd:
                assert _same_array(gd[index], wd[index]), (field, index)
        for field in ("below_counts", "above_counts", "held_rows",
                      "family_rows", "moments"):
            assert _same_array(getattr(g, field), getattr(w, field)), field


def check_kernel(root: BoatNode, batch: np.ndarray, schema) -> None:
    want = walk_deltas(root, batch, schema)
    assert_same_deltas(compute_batch_delta(root, batch, schema), want)
    plan = compile_skeleton(root, schema)
    assert_same_deltas(plan.deltas(batch, NUMPY), want)
    if len(batch) <= 3000:
        assert_same_deltas(plan.deltas(batch, PYTHON), want)


# -- skeletons -----------------------------------------------------------------


def agrawal(function_id: int, n: int, seed: int = 0, noise: float = 0.1):
    gen = AgrawalGenerator(AgrawalConfig(function_id=function_id, noise=noise), seed=seed)
    return gen.generate(n), gen.schema


def skeleton(sample, schema, method=GINI, table_size=None) -> BoatNode:
    return sampling_phase(
        sample,
        schema,
        method,
        SplitConfig(min_samples_split=40, min_samples_leaf=5),
        BoatConfig(sample_size=len(sample), bootstrap_repetitions=6, seed=1),
        table_size or len(sample) * 20,
        np.random.default_rng(0),
    ).root


def manual_skeleton(schema):
    """Root: categorical color ∈ {0, 1}; left: x ∈ [40, 60]; right frontier."""
    edges = {0: np.array([20.0, 40.0, np.nextafter(60.0, 0.0), 60.0, 80.0]),
             1: np.array([-5.0, 50.0])}
    root = BoatNode(0, 0, CoarseCategorical(2, frozenset({0, 1})), schema,
                    edges, CONFIG)
    left = BoatNode(1, 1, CoarseNumeric(0, 40.0, 60.0), schema,
                    {0: np.array([10.0, 40.0, 60.0]), 1: np.array([0.0])}, CONFIG)
    right = BoatNode(2, 1, None, schema, {}, CONFIG)
    ll = BoatNode(3, 2, None, schema, {}, CONFIG)
    lr = BoatNode(4, 2, None, schema, {}, CONFIG)
    root.left, root.right, left.left, left.right = left, right, ll, lr
    left.parent = right.parent = root
    ll.parent = lr.parent = left
    return root


#: (noise, seed) per Agrawal function giving a multi-level skeleton.
WORKLOADS = {f: (0.1, 2) for f in range(1, 11)} | {
    6: (0.1, 5), 10: (0.0, 2),
}


class TestAgainstWalk:
    @pytest.mark.parametrize("function_id", range(1, 11))
    def test_agrawal_skeletons(self, function_id):
        noise, seed = WORKLOADS[function_id]
        data, schema = agrawal(function_id, 9000, seed=seed, noise=noise)
        root = skeleton(data[:2000], schema)
        assert len(list(root.nodes())) >= 3
        check_kernel(root, data, schema)
        check_kernel(root, data[2000:2900], schema)

    @pytest.mark.parametrize("function_id", [2, 6])
    def test_quest_moment_bits(self, function_id):
        data, schema = agrawal(function_id, 6000, seed=2)
        root = skeleton(data[:1500], schema, QuestSplitSelection())
        assert any(n.moments is not None for n in root.nodes())
        check_kernel(root, data, schema)

    def test_categorical_root_and_unreached_nodes(self, small_schema):
        root = manual_skeleton(small_schema)
        data = simple_xy_data(small_schema, 800, seed=3)
        check_kernel(root, data, small_schema)
        # Only right-hand colors: the whole left subtree is unreached.
        right_only = data[data["color"] >= 2]
        got = compute_batch_delta(root, right_only, small_schema)
        assert [d.node.node_id for d in got] == [0, 2]
        check_kernel(root, right_only, small_schema)
        # Only held rows at node 1: its children emit nothing.
        held_only = data[(data["color"] < 2) & (data["x"] >= 40) & (data["x"] <= 60)]
        assert [d.node.node_id for d in compute_batch_delta(
            root, held_only, small_schema)] == [0, 1]
        check_kernel(root, held_only, small_schema)

    @pytest.mark.parametrize("edges", [[50.0], []])
    def test_all_held_root(self, small_schema, edges):
        data = simple_xy_data(small_schema, 300, seed=4)
        root = BoatNode(0, 0, CoarseNumeric(0, -1e9, 1e9), small_schema,
                        {0: np.asarray(edges, dtype=np.float64)}, CONFIG)
        root.left = BoatNode(1, 1, None, small_schema, {}, CONFIG)
        root.right = BoatNode(2, 1, None, small_schema, {}, CONFIG)
        root.left.parent = root.right.parent = root
        deltas = compute_batch_delta(root, data, small_schema)
        assert [d.node.node_id for d in deltas] == [0]
        check_kernel(root, data, small_schema)

    def test_nan_rows(self, small_schema):
        root = manual_skeleton(small_schema)
        data = simple_xy_data(small_schema, 600, seed=5)
        data["x"][::7] = np.nan
        data["y"][::5] = np.nan
        data["x"][3::11] = -0.0
        data["y"][4::13] = np.inf
        check_kernel(root, data, small_schema)

    def test_tiny_batches(self, small_schema):
        root = manual_skeleton(small_schema)
        data = simple_xy_data(small_schema, 50, seed=6)
        assert compute_batch_delta(root, data[:0], small_schema) == []
        for i in range(len(data)):
            check_kernel(root, data[i : i + 1], small_schema)

    def test_frontier_root(self, small_schema):
        data = simple_xy_data(small_schema, 200, seed=7)
        root = BoatNode(0, 0, None, small_schema, {}, CONFIG)
        deltas = compute_batch_delta(root, data, small_schema)
        assert len(deltas) == 1 and deltas[0].family_rows.tobytes() == data.tobytes()
        check_kernel(root, data, small_schema)


def test_sql_pushdown_shares_terminal_numbering(small_schema):
    root = manual_skeleton(small_schema)
    plan = compile_skeleton(root, small_schema)
    assert [t.node_id for t in plan.terminals] == [1, 3, 4, 2]
    assert [t.node_id for t in plan.subtree_terminals(root.left)] == [1, 3, 4]
    assert plan.subtree_range(root.right) == (3, 4)


def test_memory_peak_not_above_walk():
    gen = AgrawalGenerator(
        AgrawalConfig(function_id=1, noise=0.0, label_fn=drifted_function_1(70.0)),
        seed=11,
    )
    data = gen.generate(65_536)
    schema = gen.schema
    root = skeleton(data[:4000], schema, table_size=500_000)
    assert sum(1 for n in root.nodes() if not n.is_frontier) >= 2

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kept = fn()
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept
        return top

    walk = peak(lambda: walk_deltas(root, data, schema))
    kernel = peak(lambda: compile_skeleton(root, schema).deltas(data))
    assert kernel <= walk, (kernel, walk)


# -- the configured backend reaches every cleanup path ------------------------


def _spy_python_kernels(monkeypatch) -> list[str]:
    calls: list[str] = []
    for name in ("interval_masks", "bucket_class_counts", "category_class_counts"):
        original = getattr(PythonKernels, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PythonKernels, name, spy)
    return calls


def _xy_table(schema, n: int, seed: int) -> MemoryTable:
    return MemoryTable(schema, simple_xy_data(schema, n, seed=seed, rule="xy"))


SPLIT = SplitConfig(min_samples_split=60, min_samples_leaf=15, max_depth=6)


def test_crossval_cleanup_uses_configured_backend(monkeypatch, small_schema):
    table = _xy_table(small_schema, 3000, seed=8)
    calls = _spy_python_kernels(monkeypatch)
    boat = BoatConfig(sample_size=600, bootstrap_repetitions=4, seed=2,
                      kernel_backend="python")
    boat_cross_validate(table, 3, GINI, SPLIT, boat)
    assert calls


def test_incremental_insert_uses_configured_backend(monkeypatch, small_schema):
    data = simple_xy_data(small_schema, 3000, seed=9, rule="xy")
    boat = BoatConfig(sample_size=600, bootstrap_repetitions=4, seed=2,
                      kernel_backend="python")
    inc = IncrementalBoat.build(MemoryTable(small_schema, data[:2500]), GINI, SPLIT, boat)
    calls = _spy_python_kernels(monkeypatch)
    inc.insert(data[2500:])
    assert calls


def test_fold_trees_identical_across_backends(small_schema):
    table = _xy_table(small_schema, 3000, seed=10)
    trees = {}
    for backend in ("numpy", "python"):
        boat = BoatConfig(sample_size=600, bootstrap_repetitions=4, seed=2,
                          kernel_backend=backend)
        result = boat_cross_validate(table, 3, GINI, SPLIT, boat)
        trees[backend] = [tree_to_json(t) for t in result.trees]
    assert trees["numpy"] == trees["python"]
