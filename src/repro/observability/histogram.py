"""A fixed-bucket, log-scale latency histogram.

A long-running service records one latency per request; keeping every
sample grows memory and the cost of each percentile read with uptime.
:class:`LatencyHistogram` keeps one counter per geometric bucket
instead: constant memory and O(buckets) percentile reads.  ``count``,
``mean_ms`` and ``max_ms`` are exact; a percentile is read as the upper
edge of the bucket holding the nearest-rank sample, so it never
under-reports and is within one bucket width (a factor of
:data:`GROWTH`, about 4.4%) of the exact value.
"""

from __future__ import annotations

import math

import numpy as np

#: Upper edge of bucket 0, which holds every latency at or below it.
LOWEST_S = 1e-6
#: Buckets per doubling of latency.
PER_OCTAVE = 16
#: Ratio of a bucket's upper edge to its lower edge.
GROWTH = 2.0 ** (1.0 / PER_OCTAVE)
#: 32 octaves above :data:`LOWEST_S` (about 71 minutes); anything slower
#: lands in the last bucket.
BUCKETS = 32 * PER_OCTAVE + 1

_LOG_GROWTH = math.log(GROWTH)


class LatencyHistogram:
    """Counts of latencies (seconds) in :data:`BUCKETS` geometric buckets."""

    __slots__ = ("counts", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.counts = np.zeros(BUCKETS, dtype=np.int64)
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        if seconds > LOWEST_S:
            bucket = math.ceil(math.log(seconds / LOWEST_S) / _LOG_GROWTH)
            self.counts[min(bucket, BUCKETS - 1)] += 1
        else:
            self.counts[0] += 1
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) in seconds; 0.0 when empty."""
        cumulative = np.cumsum(self.counts)
        total = int(cumulative[-1])
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * total))
        bucket = int(np.searchsorted(cumulative, rank))
        upper = LOWEST_S * GROWTH ** bucket
        if bucket == BUCKETS - 1:
            upper = math.inf  # open-ended: read as the exact maximum
        return min(max(upper, self.min_s), self.max_s)

    def summary(self) -> dict:
        """The serving latency summary, in milliseconds.

        The shared shape for serving statistics: the request batcher's
        :meth:`~repro.serve.RequestBatcher.stats` and the HTTP ``/stats``
        endpoint report this dict.  An empty histogram yields zeros.
        """
        if self.count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
                    "max_ms": 0.0}
        return {
            "count": self.count,
            "mean_ms": round(self.total_s / self.count * 1000.0, 3),
            "p50_ms": round(self.percentile(50) * 1000.0, 3),
            "p99_ms": round(self.percentile(99) * 1000.0, 3),
            "max_ms": round(self.max_s * 1000.0, 3),
        }
