"""An exact grid bucketizer: ``searchsorted(edges, v, "left")`` without a binary search.

A binary search over a few dozen edges mispredicts a branch at almost
every level on random keys.  :class:`GridBucketizer` replaces it with a
branch-free lookup that is exact, not approximate:

* The *cell* of a value is ``trunc(clip(v * s - c, 0, G + 2))`` for a
  scale ``s > 0`` and offset ``c`` fitted to the edges.  Every step is an
  IEEE operation that is monotone non-decreasing in ``v`` (rounding never
  reorders two values), so the cell function is monotone, and the edges
  are assigned their cells by the very same numpy ufuncs.
* Hence in a cell that holds no edge, every edge of an earlier cell is
  below the value and every edge of a later cell is above it: the bucket
  is ``first[cell]``, the number of edges in earlier cells, exactly.
* A cell holding up to ``steps`` edges is resolved by comparing the value
  with those edges (one compare-and-advance per step, padded with
  ``+inf``, which no value exceeds).  Rows in a cell holding more edges
  are *crowded* and fall back to :func:`numpy.searchsorted`.
* NaN compares false everywhere; ``fmin`` sends it to the top cell, which
  holds no finite edge, so it lands in the last bucket as under
  ``searchsorted``.  A top cell that does hold an edge (``+inf``) is
  marked crowded.

See ``docs/KERNELS.md`` for the full argument.
"""

from __future__ import annotations

import numpy as np

#: Grid cells per edge; more cells leave fewer values sharing a cell with
#: an edge.
CELLS_PER_EDGE = 8

#: Edges a cell may hold and still be resolved by compare-and-advance.
MAX_STEPS = 2


class GridBucketizer:
    """Bucket indices of values against fixed sorted edges, exactly.

    ``bucketizer(values)`` equals ``np.searchsorted(edges, values,
    side="left")`` element for element, NaN included (last bucket).
    Compile once per edge set, then call on any number of batches.
    """

    __slots__ = ("edges", "_scale", "_offset", "_top", "_first", "_steps", "_crowded")

    def __init__(self, edges: np.ndarray):
        edges = np.ascontiguousarray(edges, dtype=np.float64)
        self.edges = edges
        finite = edges[np.isfinite(edges)]
        lo, hi = (float(finite[0]), float(finite[-1])) if len(finite) else (0.0, 0.0)
        cells = max(1, CELLS_PER_EDGE * len(edges))
        # Halving both ends keeps hi - lo finite for edges spanning ±1e308;
        # a zero or subnormal span (one edge) would give an infinite scale.
        half_span = 0.5 * hi - 0.5 * lo
        scale = 0.5 * cells / half_span if half_span > 0 else 1.0
        if not np.isfinite(scale):
            scale = 1.0
        self._scale = scale
        self._offset = lo * scale - 1.0
        self._top = float(cells + 2)
        edge_cells = self._cells(edges)
        count = np.bincount(edge_cells, minlength=cells + 3)
        first = np.zeros(cells + 3, dtype=np.intp)
        np.cumsum(count[:-1], out=first[1:])
        self._first = first
        # Values never compare above +inf padding, NaN included.
        steps = []
        for j in range(min(MAX_STEPS, int(count.max(initial=0)))):
            table = np.full(cells + 3, np.inf)
            has = count > j
            table[has] = edges[first[has] + j]
            steps.append(table)
        self._steps = steps
        crowded = count > MAX_STEPS
        crowded[-1] |= count[-1] > 0
        self._crowded = crowded if crowded.any() else None

    def _cells(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # overflow to ±inf is clipped below
            t = np.multiply(values, self._scale)
            np.subtract(t, self._offset, out=t)
        np.fmin(t, self._top, out=t)
        np.fmax(t, 0.0, out=t)
        return t.astype(np.intp)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.float64)
        cells = self._cells(values)
        buckets = self._first[cells]
        for table in self._steps:
            buckets += table[cells] < values
        if self._crowded is not None:
            rows = np.flatnonzero(self._crowded[cells])
            if len(rows):
                buckets[rows] = np.searchsorted(self.edges, values[rows], side="left")
        return buckets
