"""Tests for repro.splits.categorical and canonical subsets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SplitSelectionError
from repro.splits import (
    Gini,
    best_categorical_split,
    best_categorical_split_from_counts,
    canonical_subset,
    category_class_counts,
)

GINI = Gini()


def brute_force_best(counts, min_leaf):
    """Exhaustive reference over all subset bipartitions."""
    present = [c for c in range(counts.shape[0]) if counts[c].sum() > 0]
    total = counts.sum(axis=0)
    n = int(total.sum())
    best = None
    for r in range(1, len(present)):
        for subset in itertools.combinations(present, r):
            left = counts[list(subset)].sum(axis=0)
            n_left = int(left.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            imp = float(GINI.weighted(left[np.newaxis, :], total)[0])
            key = frozenset(subset)
            canonical = (
                key if min(present) in key else frozenset(present) - key
            )
            if best is None or imp < best[0] - 1e-12:
                best = (imp, canonical)
    return best


class TestCanonicalSubset:
    def test_keeps_subset_with_smallest(self):
        assert canonical_subset({0, 2}, {0, 1, 2, 3}) == frozenset({0, 2})

    def test_complements_without_smallest(self):
        assert canonical_subset({2, 3}, {0, 1, 2, 3}) == frozenset({0, 1})

    def test_smallest_present_not_zero(self):
        assert canonical_subset({5}, {3, 5}) == frozenset({3})

    def test_rejects_empty(self):
        with pytest.raises(SplitSelectionError):
            canonical_subset(set(), {0, 1})

    def test_rejects_full(self):
        with pytest.raises(SplitSelectionError):
            canonical_subset({0, 1}, {0, 1})

    def test_rejects_foreign_members(self):
        with pytest.raises(SplitSelectionError):
            canonical_subset({9}, {0, 1})


class TestCategoryClassCounts:
    def test_basic(self):
        codes = np.array([0, 1, 1, 2], dtype=np.int64)
        labels = np.array([0, 1, 1, 0], dtype=np.int64)
        counts = category_class_counts(codes, labels, 3, 2)
        assert counts.tolist() == [[1, 0], [0, 2], [1, 0]]

    def test_empty(self):
        counts = category_class_counts(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, 2
        )
        assert counts.shape == (4, 2)
        assert counts.sum() == 0


class TestBestCategoricalSplit:
    def test_perfect_separation(self):
        counts = np.array([[10, 0], [0, 10], [10, 0]])
        found = best_categorical_split_from_counts(counts, GINI, 1, 12)
        assert found is not None
        imp, subset = found
        assert imp == pytest.approx(0.0)
        assert subset == frozenset({0, 2})

    def test_result_is_canonical(self):
        counts = np.array([[1, 9], [9, 1], [1, 9]])
        found = best_categorical_split_from_counts(counts, GINI, 1, 12)
        assert 0 in found[1]  # contains the smallest present category

    def test_single_category_returns_none(self):
        counts = np.array([[5, 5], [0, 0], [0, 0]])
        assert best_categorical_split_from_counts(counts, GINI, 1, 12) is None

    def test_min_leaf_filters(self):
        counts = np.array([[1, 0], [20, 20]])
        assert best_categorical_split_from_counts(counts, GINI, 5, 12) is None

    def test_absent_categories_ignored(self):
        counts = np.array([[10, 0], [0, 0], [0, 10]])
        found = best_categorical_split_from_counts(counts, GINI, 1, 12)
        assert found[1] == frozenset({0})

    def test_heuristic_path_two_classes_is_optimal(self):
        """Breiman's theorem: sorted-prefix search is exact for k=2."""
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 30, size=(8, 2)).astype(np.int64)
        exhaustive = best_categorical_split_from_counts(counts, GINI, 1, 12)
        heuristic = best_categorical_split_from_counts(counts, GINI, 1, 3)
        assert heuristic[0] == pytest.approx(exhaustive[0], abs=1e-12)

    def test_tuple_level_wrapper(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        labels = np.array([0, 0, 1, 1, 0, 0], dtype=np.int64)
        found = best_categorical_split(codes, labels, 3, 2, GINI, 1, 12)
        assert found[1] == frozenset({0, 2})
        assert found[0] == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        table=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=2,
            max_size=6,
        ),
        min_leaf=st.integers(min_value=1, max_value=3),
    )
    def test_matches_brute_force(self, table, min_leaf):
        counts = np.array(table, dtype=np.int64)
        fast = best_categorical_split_from_counts(counts, GINI, min_leaf, 12)
        slow = brute_force_best(counts, min_leaf)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast[0] == pytest.approx(slow[0], abs=1e-12)


class TestExhaustiveSelectors:
    def test_tables_are_cached_and_read_only(self):
        from repro.splits.categorical import exhaustive_selectors

        table = exhaustive_selectors(4)
        assert exhaustive_selectors(4) is table
        assert table.shape == (7, 4)
        with pytest.raises(ValueError):
            table[0, 1] = True
