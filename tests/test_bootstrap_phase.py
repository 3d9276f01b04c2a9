"""Tests for repro.core.bootstrap — the sampling phase."""

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import CoarseCategorical, CoarseNumeric, sampling_phase
from repro.exceptions import SplitSelectionError
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import CLASS_COLUMN

from .conftest import simple_xy_data

GINI = ImpuritySplitSelection("gini")


def run_sampling(sample, schema, boat_config=None, split_config=None, table_size=None):
    return sampling_phase(
        sample,
        schema,
        GINI,
        split_config or SplitConfig(min_samples_split=10, min_samples_leaf=2),
        boat_config
        or BoatConfig(sample_size=len(sample), bootstrap_repetitions=8, seed=1),
        table_size if table_size is not None else len(sample) * 10,
        np.random.default_rng(0),
    )


class TestSkeletonStructure:
    def test_strong_signal_gives_numeric_root(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=1, rule="x")
        result = run_sampling(sample, small_schema)
        root = result.root
        assert isinstance(root.criterion, CoarseNumeric)
        assert root.criterion.attribute_index == 0
        assert root.criterion.low <= 50 + 3  # boundary near 50
        assert root.criterion.high >= 50 - 3

    def test_interval_contains_full_data_split(self, small_schema):
        """The coarse interval must (w.h.p.) contain the reference split."""
        from repro.tree import build_reference_tree

        full = simple_xy_data(small_schema, 20000, seed=2, rule="x")
        rng = np.random.default_rng(3)
        sample = full[rng.choice(len(full), 2000, replace=False)]
        result = run_sampling(sample, small_schema, table_size=len(full))
        config = SplitConfig(min_samples_split=10, min_samples_leaf=2)
        ref = build_reference_tree(full, small_schema, GINI, config)
        criterion = result.root.criterion
        assert isinstance(criterion, CoarseNumeric)
        assert criterion.low <= ref.root.split.value <= criterion.high

    def test_categorical_agreement(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=4, rule="color")
        result = run_sampling(sample, small_schema)
        criterion = result.root.criterion
        assert isinstance(criterion, CoarseCategorical)
        assert criterion.subset == frozenset({0, 2})

    def test_children_linked_with_parents(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=5, rule="xy")
        result = run_sampling(sample, small_schema)
        for node in result.root.nodes():
            if node.left is not None:
                assert node.left.parent is node
                assert node.right.parent is node

    def test_random_labels_give_frontier_root(self, small_schema):
        rng = np.random.default_rng(6)
        sample = simple_xy_data(small_schema, 1000, seed=6)
        sample[CLASS_COLUMN] = rng.integers(0, 2, 1000, dtype=np.int32)
        result = run_sampling(sample, small_schema)
        # Pure noise: bootstrap trees disagree immediately (or find no
        # split); either way the skeleton is trivial.
        assert result.root.is_frontier or result.report.skeleton_nodes <= 3

    def test_all_numeric_attributes_get_edges(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=7, rule="x")
        result = run_sampling(sample, small_schema)
        assert set(result.root.bucket_edges) == {0, 1}

    def test_interval_edges_forced_for_split_attribute(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=8, rule="x")
        result = run_sampling(sample, small_schema)
        criterion = result.root.criterion
        edges = result.root.bucket_edges[criterion.attribute_index]
        assert criterion.high in edges
        assert float(np.nextafter(criterion.low, -np.inf)) in edges


class TestReport:
    def test_counts_consistent(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=9, rule="xy")
        result = run_sampling(sample, small_schema)
        report = result.report
        assert report.sample_size == 2000
        assert report.bootstrap_repetitions == 8
        skeleton_count = sum(1 for _ in result.root.nodes())
        assert report.skeleton_nodes == skeleton_count
        assert report.frontier_nodes == sum(
            1 for n in result.root.nodes() if n.is_frontier
        )

    def test_interval_widths_recorded(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=10, rule="x")
        result = run_sampling(sample, small_schema)
        assert len(result.report.interval_widths) >= 1
        assert all(w >= 0 for w in result.report.interval_widths)


class TestInMemoryThreshold:
    def test_small_estimated_families_become_frontier(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=11, rule="xy")
        config = BoatConfig(
            sample_size=2000,
            bootstrap_repetitions=8,
            inmemory_threshold=10**9,  # everything "fits in memory"
            seed=1,
        )
        result = run_sampling(sample, small_schema, boat_config=config)
        assert result.root.is_frontier

    def test_zero_threshold_disables_switch(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=12, rule="x")
        config = BoatConfig(
            sample_size=2000, bootstrap_repetitions=8, inmemory_threshold=0, seed=1
        )
        result = run_sampling(sample, small_schema, boat_config=config)
        assert not result.root.is_frontier


class TestValidation:
    def test_quest_skeleton_has_moments_not_edges(self, small_schema):
        sample = simple_xy_data(small_schema, 2000, seed=13, rule="xy")
        result = sampling_phase(
            sample,
            small_schema,
            QuestSplitSelection(),
            SplitConfig(min_samples_split=10, min_samples_leaf=2),
            BoatConfig(sample_size=2000, bootstrap_repetitions=8, seed=1),
            20000,
            np.random.default_rng(0),
        )
        n_numeric = len(small_schema.numerical_attributes)
        internal = [n for n in result.root.nodes() if not n.is_frontier]
        assert internal
        for node in result.root.nodes():
            assert node.bucket_edges == {} and node.bucket_counts == {}
            if node.is_frontier:
                assert node.moments is None
            else:
                assert node.moments.shape == (2, n_numeric, small_schema.n_classes)
                assert node.moments.dtype == np.float64
                assert not node.moments.any()

    def test_rejects_unknown_method(self, small_schema):
        sample = simple_xy_data(small_schema, 100, seed=13)
        with pytest.raises(SplitSelectionError):
            sampling_phase(
                sample,
                small_schema,
                object(),
                SplitConfig(),
                BoatConfig(sample_size=100, bootstrap_repetitions=4),
                1000,
                np.random.default_rng(0),
            )

    def test_rejects_empty_sample(self, small_schema):
        with pytest.raises(SplitSelectionError):
            sampling_phase(
                small_schema.empty(0),
                small_schema,
                GINI,
                SplitConfig(),
                BoatConfig(sample_size=10, bootstrap_repetitions=4),
                1000,
                np.random.default_rng(0),
            )
