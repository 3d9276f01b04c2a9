"""Random samples from training databases.

BOAT's sampling phase needs a uniform random sample D' from the training
database D.  Two strategies are provided:

* :func:`sample_known_size` — exact uniform sampling without replacement
  when the table knows its cardinality (our tables do).  One scan.
* :func:`reservoir_sample` — Vitter's reservoir algorithm over a stream of
  batches whose total size is unknown in advance.  This is what the paper's
  data-warehouse scenario needs (the training database is a query result
  that is never materialized); [Olk93] shows such samples are obtainable
  for a broad class of queries.

Both charge a full scan to the table's I/O stats, which is exactly how the
paper accounts for BOAT's sampling phase.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .schema import Schema
from .table import Table


def choose_sample_indices(
    n: int, k: int, rng: np.random.Generator
) -> np.ndarray | None:
    """The row indices :func:`sample_known_size` would gather, sorted.

    Returns ``None`` when ``k >= n`` (the whole table is the sample and
    no randomness is consumed — the ``read_all`` path).  Factoring the
    draw out of the gather is what lets a sharded build coordinator make
    the *identical* draw centrally and ship each shard only its index
    range, so the concatenated per-shard gathers reproduce the
    single-table sample byte for byte.
    """
    if k >= n:
        return None
    return np.sort(rng.choice(n, size=k, replace=False))


def gather_rows(
    table: Table, chosen: np.ndarray, batch_rows: int = 65536
) -> np.ndarray:
    """Gather the rows at sorted indices ``chosen`` in one sequential scan."""
    out = table.schema.empty(len(chosen))
    filled = 0
    offset = 0
    for batch in table.scan(batch_rows):
        lo = np.searchsorted(chosen, offset, side="left")
        hi = np.searchsorted(chosen, offset + len(batch), side="left")
        if hi > lo:
            local = chosen[lo:hi] - offset
            out[filled : filled + (hi - lo)] = batch[local]
            filled += hi - lo
        offset += len(batch)
        # The scan generator must run to completion to register the full
        # scan; tables are cheap to finish and this keeps accounting honest.
    return out


def sample_known_size(
    table: Table, k: int, rng: np.random.Generator, batch_rows: int = 65536
) -> np.ndarray:
    """Uniform sample of ``min(k, len(table))`` records, without replacement.

    Chooses target row indices up front and gathers them in one sequential
    scan, so the I/O cost is one full scan regardless of ``k``.
    """
    n = len(table)
    if k <= 0:
        return table.schema.empty(0)
    chosen = choose_sample_indices(n, k, rng)
    if chosen is None:
        return table.read_all(batch_rows)
    return gather_rows(table, chosen, batch_rows)


def reservoir_sample(
    batches: Iterable[np.ndarray], k: int, schema: Schema, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sample of up to ``k`` records from a stream of unknown size.

    Batch-oriented reservoir sampling: each incoming record replaces a
    random reservoir slot with the classical ``k / seen`` probability.
    Returns fewer than ``k`` records iff the stream is shorter than ``k``.
    """
    if k <= 0:
        return schema.empty(0)
    reservoir = schema.empty(k)
    filled = 0
    seen = 0
    for batch in batches:
        if batch.size == 0:
            continue
        i = 0
        # Fill the reservoir with the first k records verbatim.
        if filled < k:
            take = min(k - filled, len(batch))
            reservoir[filled : filled + take] = batch[:take]
            filled += take
            seen += take
            i = take
        m = len(batch) - i
        if m > 0:
            # Record j (0-based within the remainder) is the (seen+j+1)-th
            # overall; it enters the reservoir with probability k/(seen+j+1).
            positions = seen + 1 + np.arange(m)
            accept = rng.random(m) < (k / positions)
            idx = np.flatnonzero(accept)
            if idx.size:
                slots = rng.integers(0, k, size=idx.size)
                # Later records must win conflicts on the same slot, which
                # assignment in stream order gives us for free.
                reservoir[slots] = batch[i + idx]
            seen += m
    return reservoir[:filled].copy()


def sample_table(
    table: Table, k: int, rng: np.random.Generator, batch_rows: int = 65536
) -> np.ndarray:
    """Sample D' from a table, choosing the best strategy available."""
    return sample_known_size(table, k, rng, batch_rows)


def bootstrap_indices(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of ``size`` draws *with* replacement from ``n`` rows."""
    if n == 0:
        raise ValueError("cannot bootstrap-resample an empty sample")
    return rng.integers(0, n, size=size)


def bootstrap_resample(
    data: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``size`` records from in-memory ``data`` *with* replacement."""
    return data[bootstrap_indices(len(data), size, rng)]


def split_into_chunks(data: np.ndarray, chunk_rows: int) -> Iterator[np.ndarray]:
    """Partition an array into consecutive chunks of at most ``chunk_rows``."""
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    for start in range(0, len(data), chunk_rows):
        yield data[start : start + chunk_rows]
