"""Tests for the QUEST split selection method."""

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.config import SplitConfig
from repro.exceptions import SplitSelectionError
from repro.splits import QuestSplitSelection, QuestSufficientStats
from repro.splits.base import CategoricalSplit, NumericSplit
from repro.splits.quest import (
    anova_p_value,
    chi_square_p_value,
    qda_boundary,
    quest_categorical_subset,
    select_attribute,
)
from repro.storage import CLASS_COLUMN

from .conftest import simple_xy_data


class TestAnova:
    def test_matches_scipy_f_oneway(self):
        rng = np.random.default_rng(1)
        group0 = rng.normal(0, 1, 80)
        group1 = rng.normal(0.8, 1, 70)
        counts = np.array([80, 70])
        sums = np.array([group0.sum(), group1.sum()])
        sumsq = np.array([(group0**2).sum(), (group1**2).sum()])
        ours = anova_p_value(counts, sums, sumsq)
        theirs = scipy_stats.f_oneway(group0, group1).pvalue
        assert ours == pytest.approx(theirs, rel=1e-8)

    def test_single_class_undefined(self):
        assert anova_p_value(np.array([10, 0]), np.zeros(2), np.zeros(2)) == 1.0

    def test_identical_groups_high_p(self):
        values = np.arange(20.0)
        counts = np.array([20, 20])
        sums = np.array([values.sum(), values.sum()])
        sumsq = np.array([(values**2).sum(), (values**2).sum()])
        assert anova_p_value(counts, sums, sumsq) > 0.9

    def test_perfect_separation_zero_within(self):
        counts = np.array([5, 5])
        sums = np.array([5 * 1.0, 5 * 9.0])
        sumsq = np.array([5 * 1.0, 5 * 81.0])  # zero variance in each class
        assert anova_p_value(counts, sums, sumsq) == 0.0


class TestChiSquare:
    def test_matches_scipy_contingency(self):
        table = np.array([[30, 10], [12, 28], [5, 15]])
        ours = chi_square_p_value(table)
        theirs = scipy_stats.chi2_contingency(table, correction=False).pvalue
        assert ours == pytest.approx(theirs, rel=1e-8)

    def test_degenerate_single_row(self):
        assert chi_square_p_value(np.array([[5, 5]])) == 1.0

    def test_degenerate_single_column(self):
        assert chi_square_p_value(np.array([[5, 0], [7, 0]])) == 1.0


class TestPValueFunctions:
    """``scipy.special`` survival functions, bit-equal to ``scipy.stats``.

    The p-values call ``fdtrc``/``chdtrc`` directly so that ``import
    repro`` does not pay for ``scipy.stats``; the distributions' ``sf``
    wraps the same functions, so on the domain the call sites reach
    (x >= 0, positive degrees of freedom) the results are identical.
    """

    STATISTICS = [0.0, 5e-324, 1e-12, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0, 1e3,
                  1e8, 1e300, np.inf]

    @pytest.mark.parametrize("dfn", [1, 2, 3, 9, 63])
    @pytest.mark.parametrize("dfd", [1, 2, 7, 150, 10**6])
    def test_fdtrc_is_f_sf(self, dfn, dfd):
        for x in self.STATISTICS:
            ours = scipy_special.fdtrc(dfn, dfd, x)
            assert ours == scipy_stats.f.sf(x, dfn, dfd), (dfn, dfd, x)

    @pytest.mark.parametrize("dof", [1, 2, 3, 12, 999])
    def test_chdtrc_is_chi2_sf(self, dof):
        for x in self.STATISTICS:
            ours = scipy_special.chdtrc(dof, x)
            assert ours == scipy_stats.chi2.sf(x, dof), (dof, x)


class TestQdaBoundary:
    def test_symmetric_equal_variance_midpoint(self):
        x = qda_boundary(50, 0.0, 1.0, 50, 10.0, 1.0)
        assert x == pytest.approx(5.0, abs=1e-9)

    def test_boundary_between_means(self):
        x = qda_boundary(30, 2.0, 0.5, 70, 8.0, 3.0)
        assert 2.0 <= x <= 8.0

    def test_order_invariance(self):
        a = qda_boundary(30, 2.0, 0.5, 70, 8.0, 3.0)
        b = qda_boundary(70, 8.0, 3.0, 30, 2.0, 0.5)
        assert a == pytest.approx(b)

    def test_prior_shifts_threshold_toward_minority(self):
        balanced = qda_boundary(50, 0.0, 1.0, 50, 10.0, 1.0)
        skewed = qda_boundary(90, 0.0, 1.0, 10, 10.0, 1.0)
        assert skewed > balanced  # majority class claims more space

    def test_zero_variance_degenerate(self):
        x = qda_boundary(10, 0.0, 0.0, 10, 10.0, 0.0)
        assert 0.0 <= x <= 10.0


class TestSufficientStats:
    def test_from_family_counts(self, small_schema):
        data = simple_xy_data(small_schema, 200, seed=2)
        stats = QuestSufficientStats.from_family(data, small_schema)
        assert stats.class_counts.sum() == 200
        assert stats.contingency[0].sum() == 200

    def test_streaming_equals_batch(self, small_schema):
        data = simple_xy_data(small_schema, 300, seed=3)
        whole = QuestSufficientStats.from_family(data, small_schema)
        streamed = QuestSufficientStats.empty(small_schema)
        for start in range(0, 300, 64):
            streamed.update(data[start : start + 64])
        assert np.array_equal(whole.class_counts, streamed.class_counts)
        assert np.allclose(whole.numeric_sums, streamed.numeric_sums)
        assert np.allclose(whole.numeric_sumsq, streamed.numeric_sumsq)
        assert np.array_equal(whole.contingency[0], streamed.contingency[0])

    def test_retraction_inverts_update(self, small_schema):
        data = simple_xy_data(small_schema, 100, seed=4)
        stats = QuestSufficientStats.from_family(data, small_schema)
        stats.update(data[:40], sign=-1)
        direct = QuestSufficientStats.from_family(data[40:], small_schema)
        assert np.array_equal(stats.class_counts, direct.class_counts)
        assert np.allclose(stats.numeric_sums, direct.numeric_sums)


class TestSelection:
    def test_selects_informative_numeric(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=5, rule="x")
        stats = QuestSufficientStats.from_family(data, small_schema)
        index, p = select_attribute(stats)
        assert index == 0
        assert p < 1e-10

    def test_selects_informative_categorical(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=6, rule="color")
        stats = QuestSufficientStats.from_family(data, small_schema)
        index, _ = select_attribute(stats)
        assert index == 2

    def test_categorical_subset_separates(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=7, rule="color")
        stats = QuestSufficientStats.from_family(data, small_schema)
        subset = quest_categorical_subset(stats.contingency[0])
        assert subset in (frozenset({0, 2}), frozenset({1, 3}))
        # Canonical orientation: must contain the smallest present code.
        assert 0 in subset

    def test_subset_none_for_single_category(self):
        assert quest_categorical_subset(np.array([[5, 5], [0, 0]])) is None


class TestChooseSplit:
    def test_numeric_split_near_boundary(self, small_schema):
        data = simple_xy_data(small_schema, 800, seed=8, rule="x")
        decision = QuestSplitSelection().choose_split(
            data, small_schema, SplitConfig()
        )
        assert isinstance(decision.split, NumericSplit)
        assert decision.split.attribute_index == 0
        assert 40 < decision.split.value < 60

    def test_categorical_split(self, small_schema):
        data = simple_xy_data(small_schema, 800, seed=9, rule="color")
        decision = QuestSplitSelection().choose_split(
            data, small_schema, SplitConfig()
        )
        assert isinstance(decision.split, CategoricalSplit)
        assert decision.split.subset == frozenset({0, 2})

    def test_pure_family_is_leaf(self, small_schema):
        data = simple_xy_data(small_schema, 100, seed=10)
        data[CLASS_COLUMN] = 0
        assert (
            QuestSplitSelection().choose_split(data, small_schema, SplitConfig())
            is None
        )

    def test_min_samples_split(self, small_schema):
        data = simple_xy_data(small_schema, 10, seed=11)
        assert (
            QuestSplitSelection().choose_split(
                data, small_schema, SplitConfig(min_samples_split=100)
            )
            is None
        )

    def test_min_samples_leaf_enforced(self, small_schema):
        """An extreme QDA threshold that starves a side becomes a leaf."""
        data = simple_xy_data(small_schema, 60, seed=12, rule="x")
        config = SplitConfig(min_samples_leaf=29)
        decision = QuestSplitSelection().choose_split(data, small_schema, config)
        if decision is not None:
            mask = decision.split.evaluate(data, small_schema)
            assert 29 <= mask.sum() <= len(data) - 29

    def test_alpha_validation(self):
        with pytest.raises(SplitSelectionError):
            QuestSplitSelection(alpha=0.0)

    def test_alpha_stops_on_weak_signal(self, small_schema):
        rng = np.random.default_rng(13)
        data = small_schema.empty(400)
        data["x"] = rng.uniform(0, 100, 400)
        data["y"] = rng.uniform(0, 100, 400)
        data["color"] = rng.integers(0, 4, 400, dtype=np.int32)
        data[CLASS_COLUMN] = rng.integers(0, 2, 400, dtype=np.int32)
        decision = QuestSplitSelection(alpha=1e-6).choose_split(
            data, small_schema, SplitConfig()
        )
        assert decision is None
