"""Differential suite: the level-synchronous grower ≡ the per-node recursion.

``build_reference_tree`` grows impurity trees level by level on the numpy
kernel backend (:mod:`repro.tree.grower`) and keeps the per-node
recursion for the per-row ``python`` backend.  The recursion is the
oracle: every case builds the same family both ways and asserts the
serialized trees are byte-identical — across F1–F10 and all three
impurities, stopping rules, sampled split search, three classes, NaN,
large categorical domains, duplicate-heavy bootstrap families, an empty
family, BOAT's grafted completions and rebuilds, and random schemas.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.splits.base import NumericSplit
from repro.splits.methods import sampled_search_rows
from repro.storage import CLASS_COLUMN, Attribute, MemoryTable, Schema
from repro.tree import (
    DecisionTree,
    Node,
    build_reference_tree,
    class_counts,
    grow_subtree,
    tree_to_json,
    trees_equal,
)
from repro.tree.builder import _grows_levelwise
from repro.tree.grower import _search_rows

pytestmark = pytest.mark.kernels

IMPURITIES = ["gini", "entropy", "interclass_variance"]


def _agrawal(function_id: int, n: int, seed: int = 0):
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=seed
    )
    return generator.generate(n), generator.schema


def _both(family, schema, impurity, config) -> tuple[str, str]:
    """(numpy level-wise tree, python per-node recursion tree) as JSON."""
    grown = build_reference_tree(
        family, schema, ImpuritySplitSelection(impurity, kernels="numpy"), config
    )
    oracle = build_reference_tree(
        family, schema, ImpuritySplitSelection(impurity, kernels="python"), config
    )
    return tree_to_json(grown), tree_to_json(oracle)


def _assert_identical(family, schema, impurity, config) -> None:
    __tracebackhide__ = True
    grown, oracle = _both(family, schema, impurity, config)
    assert grown == oracle, f"grower diverged from the recursion under {config}"


def _random_family(schema: Schema, n: int, seed: int, nan_frac: float = 0.0):
    """Rows over ``schema`` with a label that depends on a few columns."""
    rng = np.random.default_rng(seed)
    family = schema.empty(n)
    score = np.zeros(n)
    for attr in schema.attributes:
        if attr.is_numerical:
            # Few distinct values, so ties and duplicates are common.
            values = np.round(rng.normal(0.0, 3.0, n), 1)
            if nan_frac:
                values[rng.random(n) < nan_frac] = np.nan
            family[attr.name] = values
            score += np.nan_to_num(values)
        else:
            codes = rng.integers(0, attr.domain_size, n).astype(np.int32)
            family[attr.name] = codes
            score += (codes % 3) - 1
    if n == 0:
        return family
    noise = rng.random(n) < 0.15
    cuts = np.quantile(score, np.linspace(0, 1, schema.n_classes + 1)[1:-1])
    labels = np.digitize(score, cuts)
    labels = np.where(noise, rng.integers(0, schema.n_classes, n), labels)
    family[CLASS_COLUMN] = labels.astype(np.int32)
    return family


class TestAgrawalFamilies:
    @pytest.mark.parametrize("impurity", IMPURITIES)
    @pytest.mark.parametrize("function_id", range(1, 11))
    def test_no_max_depth(self, function_id, impurity):
        family, schema = _agrawal(function_id, 700, seed=function_id)
        _assert_identical(family, schema, impurity, SplitConfig(min_samples_split=10))

    @pytest.mark.parametrize("function_id", range(1, 11))
    @pytest.mark.parametrize("min_samples_leaf", [1, 7])
    @pytest.mark.parametrize("max_depth", [None, 0, 6])
    @pytest.mark.parametrize("split_sample_rows", [None, 300])
    def test_stopping_rules_and_sampling(
        self, function_id, min_samples_leaf, max_depth, split_sample_rows
    ):
        family, schema = _agrawal(function_id, 900, seed=100 + function_id)
        config = SplitConfig(
            min_samples_split=8,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            split_sample_rows=split_sample_rows,
        )
        # Each impurity meets the whole grid on a third of the functions.
        impurity = IMPURITIES[function_id % len(IMPURITIES)]
        _assert_identical(family, schema, impurity, config)

    @pytest.mark.parametrize("impurity", IMPURITIES)
    def test_sampled_search_keeps_family_order(self, impurity):
        """The stride subsample is positional: rows must stay in family
        order inside every node, or a different subsample is searched."""
        family, schema = _agrawal(7, 1500, seed=5)
        config = SplitConfig(min_samples_split=20, split_sample_rows=300)
        _assert_identical(family, schema, impurity, config)

    def test_search_rows_are_the_per_node_stride_subsample(self):
        sizes = np.array([5, 300, 301, 899, 901, 1000, 2])
        rows = np.random.default_rng(0).permutation(int(sizes.sum()))
        got, kept = _search_rows(rows, sizes, 300)
        config = SplitConfig(split_sample_rows=300)
        per_node = [
            sampled_search_rows(segment, config)
            for segment in np.split(rows, np.cumsum(sizes)[:-1])
        ]
        np.testing.assert_array_equal(got, np.concatenate(per_node))
        np.testing.assert_array_equal(kept, [len(seg) for seg in per_node])

    def test_duplicate_heavy_bootstrap_family(self):
        family, schema = _agrawal(2, 400, seed=8)
        rng = np.random.default_rng(3)
        boot = family[rng.integers(0, 80, 1200)]
        for impurity in IMPURITIES:
            _assert_identical(boot, schema, impurity, SplitConfig(min_samples_leaf=3))

    def test_empty_family(self):
        family, schema = _agrawal(1, 0)
        grown, oracle = _both(family, schema, "gini", SplitConfig())
        assert grown == oracle
        tree = build_reference_tree(family, schema, ImpuritySplitSelection("gini"))
        assert tree.n_nodes == 1 and tree.root.n_tuples == 0

    def test_node_ids_follow_the_recursion(self):
        family, schema = _agrawal(7, 800, seed=2)
        tree = build_reference_tree(
            family, schema, ImpuritySplitSelection("gini"), SplitConfig(min_samples_split=10)
        )
        ids = [node.node_id for node in tree.nodes()]
        assert ids[0] == 0 and sorted(ids) == list(range(tree.n_nodes))
        for node in tree.internal_nodes():
            assert node.right.node_id == node.left.node_id + 1
        # A node added after the build gets the next free id.
        assert tree.allocate_id() == tree.n_nodes


class TestSchemas:
    def test_three_classes_with_nan(self):
        schema = Schema(
            [
                Attribute.numerical("a"),
                Attribute.categorical("c", 6),
                Attribute.numerical("b"),
            ],
            n_classes=3,
        )
        family = _random_family(schema, 900, seed=1, nan_frac=0.1)
        for impurity in IMPURITIES:
            for config in (
                SplitConfig(min_samples_split=6),
                SplitConfig(min_samples_leaf=5, split_sample_rows=200),
            ):
                _assert_identical(family, schema, impurity, config)
            # NaN candidates win on this family if admitted; ``X <= NaN``
            # routes every row right, so such a build never terminated.
            tree = build_reference_tree(
                family, schema, ImpuritySplitSelection(impurity), SplitConfig(min_samples_split=6)
            )
            assert not any(
                isinstance(node.split, NumericSplit) and np.isnan(node.split.value)
                for node in tree.internal_nodes()
            )

    def test_large_categorical_domain_and_absent_categories(self):
        """Above ``max_categorical_exhaustive`` the prefix search runs;
        below it, deep nodes see only some categories (absent ones)."""
        schema = Schema(
            [Attribute.categorical("wide", 16), Attribute.categorical("narrow", 5)],
            n_classes=2,
        )
        family = _random_family(schema, 1500, seed=4)
        for exhaustive in (12, 4):
            config = SplitConfig(min_samples_split=10, max_categorical_exhaustive=exhaustive)
            for impurity in IMPURITIES:
                _assert_identical(family, schema, impurity, config)

    def test_all_nan_column(self):
        schema = Schema([Attribute.numerical("a"), Attribute.numerical("b")], n_classes=2)
        family = _random_family(schema, 300, seed=6)
        family["a"] = np.nan
        _assert_identical(family, schema, "gini", SplitConfig())

    @settings(max_examples=25, deadline=None)
    @given(
        n_numeric=st.integers(0, 3),
        domains=st.lists(st.integers(2, 9), max_size=2),
        n_classes=st.integers(2, 4),
        n=st.integers(0, 250),
        seed=st.integers(0, 2**16),
        nan_frac=st.sampled_from([0.0, 0.2]),
        impurity=st.sampled_from(IMPURITIES),
        min_samples_leaf=st.integers(1, 6),
        max_depth=st.sampled_from([None, 1, 3]),
        max_exhaustive=st.sampled_from([3, 12]),
        split_sample_rows=st.sampled_from([None, 40]),
    )
    def test_random_small_schemas(
        self, n_numeric, domains, n_classes, n, seed, nan_frac, impurity,
        min_samples_leaf, max_depth, max_exhaustive, split_sample_rows,
    ):
        attributes = [Attribute.numerical(f"x{i}") for i in range(n_numeric)]
        attributes += [Attribute.categorical(f"c{i}", d) for i, d in enumerate(domains)]
        if not attributes:
            attributes = [Attribute.numerical("x")]
        schema = Schema(attributes, n_classes=n_classes)
        family = _random_family(schema, n, seed, nan_frac)
        config = SplitConfig(
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            max_categorical_exhaustive=max_exhaustive,
            split_sample_rows=split_sample_rows,
        )
        _assert_identical(family, schema, impurity, config)


class TestDispatch:
    def test_paths(self):
        numpy = ImpuritySplitSelection("gini")
        assert _grows_levelwise(numpy, numpy.kernels)
        python = ImpuritySplitSelection("gini", kernels="python")
        assert not _grows_levelwise(python, python.kernels)
        quest = QuestSplitSelection()
        assert not _grows_levelwise(quest, quest.kernels)

    def test_subclass_with_own_choose_split_keeps_recursion(self):
        class Custom(ImpuritySplitSelection):
            def choose_split(self, family, schema, config):
                return None  # never split

        family, schema = _agrawal(1, 300)
        tree = build_reference_tree(family, schema, Custom("gini"))
        assert tree.n_nodes == 1


class TestBoatGrafts:
    def test_completions_and_rebuilds_graft_grower_subtrees(self):
        """BOAT finishes frontier nodes and rebuilds refuted subtrees with
        the reference builder and grafts the results into its tree."""
        family, schema = _agrawal(9, 3000, seed=1)
        split = SplitConfig(min_samples_split=30)

        def build(backend: str):
            return boat_build(
                MemoryTable(schema, family),
                ImpuritySplitSelection("gini", kernels=backend),
                split,
                BoatConfig(
                    sample_size=600, bootstrap_repetitions=4, seed=1,
                    kernel_backend=backend,
                ),
            )

        grown = build("numpy")
        report = grown.report.finalize
        assert report.frontier_completions >= 1 and report.rebuilds >= 1
        oracle = build_reference_tree(
            family, schema, ImpuritySplitSelection("gini", kernels="python"), split
        )
        assert tree_to_json(grown.tree) == tree_to_json(build("python").tree)
        # BOAT numbers its nodes itself; the structure is the oracle's.
        assert trees_equal(grown.tree, oracle)


def _per_node_tree(family, schema, method, config) -> DecisionTree:
    """The per-node recursion with the numpy kernels."""
    root = Node(0, 0, class_counts(family, schema.n_classes))
    tree = DecisionTree(schema, root)
    grow_subtree(tree, root, family, method, config)
    return tree


def _traced_peak(build) -> tuple[int, object]:
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_working_memory_bounded_by_per_node_path():
    """On a 50k-row family the grower's presorted lists and per-level
    arrays stay within 1.5x the per-node recursion's peak."""
    family, schema = _agrawal(1, 50_000, seed=11)
    method = ImpuritySplitSelection("gini")
    config = SplitConfig(min_samples_split=200)
    per_node_peak, per_node = _traced_peak(
        lambda: _per_node_tree(family, schema, method, config)
    )
    grower_peak, grown = _traced_peak(
        lambda: build_reference_tree(family, schema, method, config)
    )
    assert tree_to_json(grown) == tree_to_json(per_node)
    assert grower_peak <= 1.5 * per_node_peak, (grower_peak, per_node_peak)
