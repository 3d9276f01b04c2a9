"""The exact grid bucketizer ≡ ``np.searchsorted(edges, v, side="left")``.

:class:`~repro.kernels.grid.GridBucketizer` replaces the binary search
of the cleanup scan's bucket counting with a monotone cell lookup.  Its
claim is exactness, so every test compares bucket indices element for
element with ``searchsorted`` and bucket counts with the per-row
:class:`~repro.kernels.PythonKernels` oracle, on the inputs that break
grid arithmetic: no edge or one edge (a zero span), 1-ulp point-bucket
pairs, dozens of edges in one cell, edges spanning ±1e308 (``hi - lo``
overflows), subnormals, integer columns where every value is an edge,
and NaN, ±inf and -0.0 values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import NumpyKernels, PythonKernels
from repro.kernels.grid import GridBucketizer

pytestmark = pytest.mark.kernels

NUMPY = NumpyKernels()
PYTHON = PythonKernels()
K = 3

_TINY = 5e-324  # smallest subnormal

_SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, _TINY, -_TINY, 2.2250738585072014e-308,
    float("inf"), float("-inf"), float("nan"),
]

_finite = st.one_of(
    st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-100, 100).map(float),
)
_value = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(-100, 100).map(float),
)


def _edges(values) -> np.ndarray:
    """Sorted, deduplicated float64 edges (the discretization's contract)."""
    return np.asarray(sorted(set(float(v) for v in values)), dtype=np.float64)


@st.composite
def edge_sets(draw) -> np.ndarray:
    with np.errstate(over="ignore"):  # nextafter of ±max is ±inf: fine
        return _edge_set(draw)


def _edge_set(draw) -> np.ndarray:
    base = draw(st.lists(_finite, min_size=0, max_size=40))
    edges = set(float(v) for v in base)
    # Point-bucket pairs: a value and its 1-ulp lower neighbour.
    for v in draw(st.lists(_finite, max_size=4)):
        edges.update((v, float(np.nextafter(v, -np.inf))))
    # A crowded cell: dozens of consecutive floats.
    if draw(st.booleans()):
        start = draw(_finite)
        run = [start]
        for _ in range(draw(st.integers(3, 40))):
            run.append(float(np.nextafter(run[-1], np.inf)))
        edges.update(run)
    if draw(st.booleans()):
        edges.update(draw(st.sampled_from([[float("inf")], [float("-inf")],
                                           [float("-inf"), float("inf")]])))
    return _edges(edges)


def _check(edges: np.ndarray, values: np.ndarray) -> None:
    expected = np.searchsorted(edges, values, side="left")
    got = GridBucketizer(edges)(values)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, expected)
    labels = (np.arange(len(values)) % K).astype(np.int32)
    fast = NUMPY.bucket_class_counts(edges, values, labels, K)
    slow = PYTHON.bucket_class_counts(edges, values, labels, K)
    assert fast.shape == slow.shape == (len(edges) + 1, K)
    np.testing.assert_array_equal(fast, slow)


class TestGridBucketizer:
    @settings(max_examples=400, deadline=None)
    @given(edge_sets(), st.lists(_value, max_size=80))
    def test_matches_searchsorted_and_oracle(self, edges, values):
        values = np.asarray(values, dtype=np.float64)
        _check(edges, np.concatenate([values, edges]))

    def test_no_edges_and_one_edge(self):
        values = np.asarray(_SPECIAL + [3.0, -3.0])
        _check(np.empty(0), values)
        for edge in (0.0, -0.0, 1e308, -1e308, _TINY, float("inf"), float("-inf")):
            # hi == lo: the scale must not be inf (-inf * 0 = NaN trap).
            _check(np.asarray([edge]), values)

    def test_span_overflows(self):
        edges = _edges([-1.7976931348623157e308, -1e308, 0.0, 1e308,
                        1.7976931348623157e308])
        values = np.concatenate([edges, np.asarray(_SPECIAL),
                                 np.linspace(-1.0, 1.0, 101) * 1e308])
        _check(edges, values)

    def test_subnormals(self):
        edges = _edges([_TINY * i for i in range(-5, 6)])
        values = np.asarray([_TINY * i for i in range(-8, 9)] + _SPECIAL)
        _check(edges, values)

    def test_point_bucket_pairs(self):
        spikes = [0.0, 1.0, 1e5, -7.25]
        edges = _edges(spikes + [float(np.nextafter(v, -np.inf)) for v in spikes])
        values = np.concatenate([edges, np.nextafter(edges, np.inf), _SPECIAL])
        _check(edges, values)

    def test_dozens_of_edges_in_one_cell(self):
        # Forty consecutive floats plus two far edges: the run shares one
        # grid cell and its rows take the searchsorted fallback.
        run = [1.0]
        for _ in range(40):
            run.append(float(np.nextafter(run[-1], np.inf)))
        edges = _edges(run + [-1e6, 1e6])
        values = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf), _SPECIAL])
        _check(edges, values)

    def test_integer_column_every_value_an_edge(self):
        edges = np.arange(20.0, 81.0)
        rng = np.random.default_rng(0)
        values = rng.integers(15, 86, size=5000).astype(np.float64)
        _check(edges, values)

    def test_nan_inf_and_signed_zero_values(self):
        edges = _edges([-1.0, -0.0, 1.0])
        values = np.asarray([float("nan"), float("inf"), float("-inf"), -0.0,
                             0.0, -1.0, 1.0, float("nan")])
        _check(edges, values)
        assert GridBucketizer(edges)(values)[0] == len(edges)

    def test_strided_input(self):
        dtype = np.dtype([("v", "<f8"), ("c", "<i4")])
        batch = np.zeros(500, dtype=dtype)
        batch["v"] = np.random.default_rng(1).normal(size=500)
        edges = _edges(np.quantile(batch["v"], np.linspace(0, 1, 33)))
        _check(edges, batch["v"])


class TestGroupedCounts:
    @settings(max_examples=150, deadline=None)
    @given(edge_sets(), st.lists(_value, max_size=60), st.integers(1, 5), st.data())
    def test_grouped_counts_match_oracle(self, edges, values, n_groups, data):
        values = np.asarray(values, dtype=np.float64)
        n = len(values)
        groups = np.asarray(
            data.draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)),
            dtype=np.intp,
        )
        labels = (np.arange(n) % K).astype(np.int32)
        fast = NUMPY.bucket_class_counts(
            GridBucketizer(edges), values, labels, K, groups=groups, n_groups=n_groups
        )
        slow = PYTHON.bucket_class_counts(
            GridBucketizer(edges), values, labels, K, groups=groups, n_groups=n_groups
        )
        assert fast.shape == (n_groups, len(edges) + 1, K)
        np.testing.assert_array_equal(fast, slow)
        for g in range(n_groups):
            np.testing.assert_array_equal(
                fast[g],
                NUMPY.bucket_class_counts(edges, values[groups == g],
                                          labels[groups == g], K),
            )
