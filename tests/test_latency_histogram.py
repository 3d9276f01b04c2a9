"""The bounded latency histogram behind the serving statistics."""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.observability import LatencyHistogram
from repro.observability.histogram import BUCKETS, GROWTH, LOWEST_S


def lognormal_seconds(n: int, seed: int) -> np.ndarray:
    """Latencies around 5 ms with a long tail."""
    return np.random.default_rng(seed).lognormal(np.log(0.005), 0.8, n)


class TestLatencyHistogram:
    def test_memory_is_constant_over_100k_latencies(self):
        hist = LatencyHistogram()
        counts = hist.counts
        samples = lognormal_seconds(100_000, seed=1).tolist()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for seconds in samples:
                hist.record(seconds)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.counts is counts and counts.shape == (BUCKETS,)
        # A list of every sample would hold 100k floats (~3 MB).
        assert after - before < 4096
        assert hist.count == 100_000

    def test_percentiles_within_one_bucket_of_numpy(self):
        samples = lognormal_seconds(100_000, seed=2)
        hist = LatencyHistogram()
        for seconds in samples.tolist():
            hist.record(seconds)
        for q in (1, 10, 50, 90, 99, 99.9):
            exact = float(np.percentile(samples, q))
            assert exact / GROWTH <= hist.percentile(q) <= exact * GROWTH, q

    def test_count_mean_and_max_are_exact(self):
        samples = lognormal_seconds(5_000, seed=3)
        hist = LatencyHistogram()
        for seconds in samples.tolist():
            hist.record(seconds)
        summary = hist.summary()
        assert set(summary) == {"count", "mean_ms", "p50_ms", "p99_ms",
                                "max_ms"}
        assert summary["count"] == 5_000
        assert summary["mean_ms"] == round(float(samples.mean()) * 1e3, 3)
        assert summary["max_ms"] == round(float(samples.max()) * 1e3, 3)
        assert hist.percentile(100) == float(samples.max())

    def test_empty_summary_is_zeros(self):
        assert LatencyHistogram().summary() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    def test_single_latency_reads_back_exactly(self):
        hist = LatencyHistogram()
        hist.record(0.0123)
        assert hist.percentile(50) == hist.percentile(99) == 0.0123

    def test_extremes_land_in_the_edge_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(LOWEST_S / 2)
        hist.record(1e9)
        assert hist.counts[0] == 2 and hist.counts[-1] == 1
        assert hist.percentile(99) == 1e9
