"""Hypothesis equivalence suite: every numpy kernel ≡ the per-row reference.

Each test draws adversarial batches — NaN, ±inf, signed zeros, empty,
single-row, constant-label, exact ties at candidate thresholds — and
asserts the vectorized :class:`~repro.kernels.NumpyKernels` output is
*bit-identical* to :class:`~repro.kernels.PythonKernels`.  Integer
outputs are compared exactly; float outputs are compared through their
byte representation so a ``-0.0`` / ``0.0`` or NaN-payload divergence
cannot hide behind ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import NumpyKernels, PythonKernels
from repro.splits.impurity import get_impurity

pytestmark = pytest.mark.kernels

NUMPY = NumpyKernels()
PYTHON = PythonKernels()

K = 3
DOMAIN = 5

#: Pool biased toward the values that historically break columnar code:
#: signed zeros, exact ties, infinities, NaN.
_ADVERSARIAL = [
    0.0,
    -0.0,
    1.0,
    1.0,
    -1.0,
    2.5,
    2.5,
    float("inf"),
    float("-inf"),
    float("nan"),
]

_value = st.one_of(
    st.sampled_from(_ADVERSARIAL),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def value_label_batch(draw, min_size: int = 0, max_size: int = 50):
    n = draw(st.integers(min_size, max_size))
    values = np.asarray(
        draw(st.lists(_value, min_size=n, max_size=n)), dtype=np.float64
    )
    if draw(st.booleans()):
        labels = np.full(n, draw(st.integers(0, K - 1)), dtype=np.int32)
    else:
        labels = np.asarray(
            draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)),
            dtype=np.int32,
        )
    return values, labels


@st.composite
def code_label_batch(draw, min_size: int = 0, max_size: int = 50):
    n = draw(st.integers(min_size, max_size))
    codes = np.asarray(
        draw(st.lists(st.integers(0, DOMAIN - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    labels = np.asarray(
        draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    return codes, labels


def _same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    __tracebackhide__ = True
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(batch=value_label_batch())
def test_class_histogram_equivalence(batch):
    _, labels = batch
    np.testing.assert_array_equal(
        NUMPY.class_histogram(labels, K), PYTHON.class_histogram(labels, K)
    )


@settings(max_examples=80, deadline=None)
@given(batch=code_label_batch())
def test_category_class_counts_equivalence(batch):
    codes, labels = batch
    np.testing.assert_array_equal(
        NUMPY.category_class_counts(codes, labels, DOMAIN, K),
        PYTHON.category_class_counts(codes, labels, DOMAIN, K),
    )


@settings(max_examples=80, deadline=None)
@given(
    batch=value_label_batch(),
    edges=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=0,
        max_size=6,
        unique=True,
    ),
)
def test_bucket_class_counts_equivalence(batch, edges):
    values, labels = batch
    edge_array = np.sort(np.asarray(edges, dtype=np.float64))
    np.testing.assert_array_equal(
        NUMPY.bucket_class_counts(edge_array, values, labels, K),
        PYTHON.bucket_class_counts(edge_array, values, labels, K),
    )


@settings(max_examples=80, deadline=None)
@given(
    batch=value_label_batch(),
    low=st.floats(allow_nan=False, width=64),
    high=st.floats(allow_nan=False, width=64),
)
def test_interval_masks_equivalence(batch, low, high):
    values, _ = batch
    if low > high:
        low, high = high, low
    for got, want in zip(
        NUMPY.interval_masks(values, low, high),
        PYTHON.interval_masks(values, low, high),
    ):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    batch=code_label_batch(),
    subset=st.frozensets(st.integers(0, DOMAIN - 1), max_size=DOMAIN),
)
def test_subset_mask_equivalence(batch, subset):
    codes, _ = batch
    np.testing.assert_array_equal(
        NUMPY.subset_mask(codes, subset), PYTHON.subset_mask(codes, subset)
    )


@settings(max_examples=100, deadline=None)
@given(batch=value_label_batch())
def test_numeric_candidates_equivalence(batch):
    values, labels = batch
    n_candidates, n_cum = NUMPY.numeric_candidates(values, labels, K)
    p_candidates, p_cum = PYTHON.numeric_candidates(values, labels, K)
    _same_bytes(n_candidates, p_candidates)
    np.testing.assert_array_equal(n_cum, p_cum)
    if len(values):
        # The final cumulative row is the whole batch's histogram.
        np.testing.assert_array_equal(
            n_cum[-1], NUMPY.class_histogram(labels, K)
        )


@settings(max_examples=100, deadline=None)
@given(batch=value_label_batch())
def test_distinct_class_counts_equivalence(batch):
    values, labels = batch
    n_values, n_counts = NUMPY.distinct_class_counts(values, labels, K)
    p_values, p_counts = PYTHON.distinct_class_counts(values, labels, K)
    _same_bytes(n_values, p_values)
    np.testing.assert_array_equal(n_counts, p_counts)
    np.testing.assert_array_equal(
        n_counts.sum(axis=0), NUMPY.class_histogram(labels, K)
    )


@settings(max_examples=80, deadline=None)
@given(batch=value_label_batch(min_size=1), measure=st.sampled_from(
    ["gini", "entropy", "interclass_variance"]
))
def test_weighted_impurity_equivalence(batch, measure):
    values, labels = batch
    impurity = get_impurity(measure)
    total = NUMPY.class_histogram(labels, K)
    _, left_counts = NUMPY.numeric_candidates(values, labels, K)
    got = NUMPY.weighted_impurity(impurity, left_counts, total)
    want = PYTHON.weighted_impurity(impurity, left_counts, total)
    _same_bytes(
        np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    )


@st.composite
def left_rows_with_totals(draw, max_rows: int = 30):
    """(m, K) left counts with (m, K) per-row totals, each row's total at
    least its left counts; zero totals included."""
    m = draw(st.integers(0, max_rows))
    cells = st.lists(st.integers(0, 40), min_size=K, max_size=K)
    left = np.asarray(draw(st.lists(cells, min_size=m, max_size=m)), dtype=np.int64)
    extra = np.asarray(draw(st.lists(cells, min_size=m, max_size=m)), dtype=np.int64)
    return left.reshape(m, K), (left + extra).reshape(m, K)


@settings(max_examples=80, deadline=None)
@given(rows=left_rows_with_totals(), measure=st.sampled_from(
    ["gini", "entropy", "interclass_variance"]
))
def test_weighted_impurity_per_row_totals(rows, measure):
    """(m, k) totals: numpy ≡ python, and each row scored on its own total."""
    left, totals = rows
    impurity = get_impurity(measure)
    got = NUMPY.weighted_impurity(impurity, left, totals)
    _same_bytes(got, PYTHON.weighted_impurity(impurity, left, totals))
    for r in range(len(left)):
        alone = NUMPY.weighted_impurity(impurity, left[r : r + 1], totals[r])
        _same_bytes(got[r : r + 1], alone)


@settings(max_examples=80, deadline=None)
@given(batch=value_label_batch(min_size=1), measure=st.sampled_from(
    ["gini", "entropy", "interclass_variance"]
))
def test_weighted_impurity_broadcast_total_bit_identical(batch, measure):
    """A (k,) total and the same total broadcast to (m, k) agree bitwise."""
    values, labels = batch
    impurity = get_impurity(measure)
    total = NUMPY.class_histogram(labels, K)
    _, left_counts = NUMPY.numeric_candidates(values, labels, K)
    broadcast = np.tile(total, (len(left_counts), 1))
    for kernels in (NUMPY, PYTHON):
        _same_bytes(
            kernels.weighted_impurity(impurity, left_counts, total),
            kernels.weighted_impurity(impurity, left_counts, broadcast),
        )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(batch=value_label_batch())
def test_quest_numeric_moments_equivalence(batch):
    values, labels = batch
    n_sums, n_sumsq = NUMPY.quest_numeric_moments(values, labels, K)
    p_sums, p_sumsq = PYTHON.quest_numeric_moments(values, labels, K)
    _same_bytes(n_sums, p_sums)
    _same_bytes(n_sumsq, p_sumsq)


# -- deterministic edge cases -------------------------------------------------


def test_empty_batch_all_kernels():
    values = np.empty(0, dtype=np.float64)
    labels = np.empty(0, dtype=np.int32)
    codes = np.empty(0, dtype=np.int32)
    for kernels in (NUMPY, PYTHON):
        assert kernels.class_histogram(labels, K).tolist() == [0, 0, 0]
        assert kernels.category_class_counts(codes, labels, DOMAIN, K).shape == (
            DOMAIN,
            K,
        )
        candidates, cum = kernels.numeric_candidates(values, labels, K)
        assert len(candidates) == 0 and cum.shape == (0, K)
        distinct, counts = kernels.distinct_class_counts(values, labels, K)
        assert len(distinct) == 0 and counts.shape == (0, K)
        sums, sumsq = kernels.quest_numeric_moments(values, labels, K)
        assert sums.tolist() == [0.0] * K and sumsq.tolist() == [0.0] * K


def test_single_row_batch():
    values = np.array([3.25])
    labels = np.array([1], dtype=np.int32)
    for kernels in (NUMPY, PYTHON):
        candidates, cum = kernels.numeric_candidates(values, labels, K)
        assert candidates.tolist() == [3.25]
        assert cum.tolist() == [[0, 1, 0]]


def test_threshold_tie_batch():
    """Duplicated candidate values must collapse into one candidate."""
    values = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 1.0])
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
    n_candidates, n_cum = NUMPY.numeric_candidates(values, labels, K)
    p_candidates, p_cum = PYTHON.numeric_candidates(values, labels, K)
    assert n_candidates.tolist() == [1.0, 2.0]
    _same_bytes(n_candidates, p_candidates)
    np.testing.assert_array_equal(n_cum, p_cum)
    assert n_cum.tolist() == [[2, 1, 0], [3, 3, 0]]


def test_nan_routing_matches():
    """NaN sorts last in candidates and lands in the overflow bucket."""
    values = np.array([np.nan, 1.0, np.nan, 2.0])
    labels = np.array([0, 1, 2, 1], dtype=np.int32)
    edges = np.array([1.5])
    for kernels in (NUMPY, PYTHON):
        buckets = kernels.bucket_class_counts(edges, values, labels, K)
        # NaN rows land past the last edge alongside values > 1.5.
        assert buckets.tolist() == [[0, 1, 0], [1, 1, 1]]
        below, held, above = kernels.interval_masks(values, 0.0, 1.5)
        # NaN compares False on both sides: held, never routed.
        assert held.tolist() == [True, True, True, False]
    n_candidates, _ = NUMPY.numeric_candidates(values, labels, K)
    p_candidates, _ = PYTHON.numeric_candidates(values, labels, K)
    _same_bytes(n_candidates, p_candidates)
    assert np.isnan(n_candidates[-2:]).all()


def test_signed_zero_grouping():
    """-0.0 == 0.0: one candidate group, byte-stable representative."""
    values = np.array([0.0, -0.0, 0.0])
    labels = np.array([0, 1, 0], dtype=np.int32)
    n_candidates, n_cum = NUMPY.numeric_candidates(values, labels, K)
    p_candidates, p_cum = PYTHON.numeric_candidates(values, labels, K)
    assert len(n_candidates) == 1
    _same_bytes(n_candidates, p_candidates)
    np.testing.assert_array_equal(n_cum, p_cum)
    n_distinct, n_counts = NUMPY.distinct_class_counts(values, labels, K)
    p_distinct, p_counts = PYTHON.distinct_class_counts(values, labels, K)
    _same_bytes(n_distinct, p_distinct)
    np.testing.assert_array_equal(n_counts, p_counts)
