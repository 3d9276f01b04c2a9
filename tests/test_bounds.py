"""Tests for repro.core.bounds — Lemma 3.1's corner-point lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import admissible_bucket_mask, bucket_lower_bound, bucket_lower_bounds
from repro.core.bounds import MAX_CLASSES_FOR_BOUND, corner_points
from repro.exceptions import SplitSelectionError
from repro.splits import Entropy, Gini, numeric_profile

GINI = Gini()


class TestCornerPoints:
    def test_two_classes_four_corners(self):
        corners = corner_points(np.array([1, 2]), np.array([5, 7]))
        expected = {(1, 2), (5, 2), (1, 7), (5, 7)}
        assert {tuple(c) for c in corners} == expected

    def test_three_classes_eight_corners(self):
        corners = corner_points(np.array([0, 0, 0]), np.array([1, 1, 1]))
        assert len(corners) == 8
        assert len({tuple(c) for c in corners}) == 8

    def test_degenerate_equal_stamps(self):
        corners = corner_points(np.array([3, 4]), np.array([3, 4]))
        assert {tuple(c) for c in corners} == {(3, 4)}

    def test_class_count_guard(self):
        k = MAX_CLASSES_FOR_BOUND + 1
        with pytest.raises(SplitSelectionError):
            corner_points(np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64))


class TestSoundness:
    """The bound must never exceed the true minimum over the bucket."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=4,
            max_size=80,
        ),
        cut=st.integers(min_value=1, max_value=3),
    )
    def test_bound_below_true_minimum(self, data, cut):
        values = np.array([float(v) for v, _ in data])
        labels = np.array([c for _, c in data], dtype=np.int64)
        profile = numeric_profile(values, labels, 2, GINI, 1)
        if profile.n_candidates < 2:
            return
        # Partition candidates into `cut+1` buckets at arbitrary edges.
        edges = profile.candidates[:: max(len(profile.candidates) // cut, 1)]
        from repro.core import bucket_index

        total = np.bincount(labels, minlength=2)
        bucket_of = bucket_index(edges, profile.candidates)
        counts = np.zeros((len(edges) + 1, 2), dtype=np.int64)
        increments = np.diff(
            profile.left_counts, axis=0, prepend=np.zeros((1, 2), dtype=np.int64)
        )
        np.add.at(counts, bucket_of, increments)
        bounds = bucket_lower_bounds(counts, total, GINI)
        for j in range(len(edges) + 1):
            members = bucket_of == j
            if not members.any():
                continue
            true_min = profile.impurities[members].min()
            assert bounds[j] <= true_min + 1e-12

    @pytest.mark.parametrize("impurity", [Gini(), Entropy()])
    def test_single_candidate_bucket_is_tight(self, impurity):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 0, 1], dtype=np.int64)
        total = np.bincount(labels, minlength=2)
        profile = numeric_profile(values, labels, 2, impurity, 1)
        # One bucket per candidate: bounds equal exact impurities.
        counts = np.diff(
            profile.left_counts, axis=0, prepend=np.zeros((1, 2), dtype=np.int64)
        )
        bounds = bucket_lower_bounds(counts, total, impurity)
        # Bound <= exact everywhere; and at degenerate rectangles with
        # equal stamp endpoints it matches exactly.
        assert np.all(bounds <= profile.impurities + 1e-12)


def per_bucket_bounds(bucket_counts, total_counts, impurity):
    """Reference: each bucket's 2^k corners built on their own, by fancy
    indexing of the stacked stamp points, then one ``weighted`` call."""
    n_buckets, k = bucket_counts.shape
    cum = np.cumsum(bucket_counts, axis=0)
    lows = np.vstack([np.zeros((1, k), dtype=np.int64), cum[:-1]])
    selectors = (np.arange(1 << k)[:, np.newaxis] >> np.arange(k)) & 1
    corners = [
        np.stack([lows[j], cum[j]])[selectors, np.arange(k)] for j in range(n_buckets)
    ]
    values = impurity.weighted(np.concatenate(corners), total_counts)
    return values.reshape(n_buckets, -1).min(axis=1)


class TestBroadcastBounds:
    """The one-broadcast bound equals the per-bucket loop bit for bit."""

    @pytest.mark.parametrize("impurity", [Gini(), Entropy()])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bitwise_equal_to_per_bucket_loop(self, impurity, k):
        rng = np.random.default_rng(k)
        for _ in range(30):
            n_buckets = int(rng.integers(1, 40))
            counts = rng.integers(0, 50, (n_buckets, k)).astype(np.int64)
            counts[rng.random(n_buckets) < 0.3] = 0  # empty buckets
            counts[:, rng.random(k) < 0.2] = 0  # a class absent everywhere
            total = counts.sum(axis=0)
            got = bucket_lower_bounds(counts, total, impurity)
            expected = per_bucket_bounds(counts, total, impurity)
            assert got.tobytes() == expected.tobytes()


class TestBucketLowerBound:
    def test_scalar_version(self):
        value = bucket_lower_bound(
            np.array([0, 0]), np.array([10, 10]), np.array([20, 20]), GINI
        )
        # Corner (10, 0): pure left of 10 tuples, right (10, 20) has gini
        # 4/9 -> weighted = (30/40) * 4/9 = 1/3, the corner minimum.
        assert value == pytest.approx(1 / 3)

    def test_nonnegative(self):
        value = bucket_lower_bound(
            np.array([2, 3]), np.array([4, 7]), np.array([9, 9]), GINI
        )
        assert value >= 0.0


class TestAdmissibleBucketMask:
    def test_empty_buckets_excluded(self):
        counts = np.array([[5, 5], [0, 0], [5, 5]])
        mask = admissible_bucket_mask(counts, 1)
        assert mask.tolist() == [True, False, True]

    def test_min_leaf_left_side(self):
        counts = np.array([[1, 0], [10, 10]])
        mask = admissible_bucket_mask(counts, 5)
        assert not mask[0]  # at most 1 tuple can go left from bucket 0
        assert mask[1]

    def test_min_leaf_right_side(self):
        counts = np.array([[10, 10], [1, 0]])
        mask = admissible_bucket_mask(counts, 5)
        assert mask[0]
        assert not mask[1]  # right side would keep at most 0 tuples

    def test_tight_boundary_case(self):
        # n=10, min_leaf=5: bucket 0 cum_hi=5 -> left ok; right = 10-0-1=9 >= 5.
        counts = np.array([[5, 0], [0, 5]])
        mask = admissible_bucket_mask(counts, 5)
        assert mask[0]
        assert not mask[1]  # its candidates leave < 5 on the right
