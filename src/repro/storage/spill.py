"""Spill files and the hybrid in-memory/on-disk tuple store.

During BOAT's cleanup scan, tuples falling inside a node's confidence
interval are held at that node (the paper's temporary file ``S_n``).
Usually these sets are small and stay in RAM, but the paper notes that a
truly scalable implementation writes them to temporary files.
:class:`TupleStore` does both: it buffers in memory up to a limit and
transparently spills to a :class:`SpillFile` beyond it.

Spill lifecycle: a spill file is an *anonymous tempfile* that never
outlives the process — ``clear``/``delete`` remove it, and garbage
collection removes it as a last resort.  Spills are never recovery
state: a checkpointed build persists its cleanup units instead (see
``docs/RECOVERY.md``).

Deletes (incremental maintenance) go through :meth:`TupleStore.remove`:
rows are located by a per-row fingerprint prefilter plus an exact byte
comparison, then marked dead in place, so a delete costs what its batch
and the store's chunk count cost, not a copy of the store.
"""

from __future__ import annotations

import io as _io
import itertools
import os
import tempfile
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import StorageError
from .io_stats import IOStats
from .schema import Schema

#: Rows a remove from a spilled store reads (and rewrites) at a time.
SPILL_SCAN_ROWS = 4096

#: One process-wide source of store versions: a version names one state of
#: one store, never repeated by another store or a later state.
_VERSIONS = itertools.count(1)

_MIX = np.uint64(0x9E3779B97F4A7C15)
_FINAL_1 = np.uint64(0xBF58476D1CE4E5B9)
_FINAL_2 = np.uint64(0x94D049BB133111EB)


def row_fingerprints(rows: np.ndarray) -> np.ndarray:
    """A uint64 hash of each record's bytes, vectorized over the rows.

    The record is read as 8-byte words (the last word overlaps the one
    before when the record size is not a multiple of 8), folded with a
    multiply-xorshift step per word and finished with splitmix64's mixer.
    Equal bytes give equal fingerprints; unequal bytes almost never do,
    and callers confirm every fingerprint hit byte for byte.
    """
    rows = np.ascontiguousarray(rows)
    n, size = len(rows), rows.dtype.itemsize
    raw = rows.view(np.uint8).reshape(n, size)
    if size < 8:
        raw = np.pad(raw, ((0, 0), (0, 8 - size)))
        size = 8
    h = np.full(n, size, dtype=np.uint64)
    for offset in [*range(0, size - 7, 8), *([size - 8] if size % 8 else [])]:
        h ^= raw[:, offset : offset + 8].view(np.uint64)[:, 0]
        h *= _MIX
        h ^= h >> np.uint64(29)
    h ^= h >> np.uint64(30)
    h *= _FINAL_1
    h ^= h >> np.uint64(27)
    h *= _FINAL_2
    h ^= h >> np.uint64(31)
    return h


def _keys(rows: np.ndarray) -> np.ndarray:
    """The records of a contiguous array as opaque byte strings."""
    return rows.view(np.dtype((np.void, rows.dtype.itemsize)))


class _Needles:
    """The records one remove must find: distinct byte strings and counts.

    :meth:`take` is the one matcher of :meth:`TupleStore.remove` and
    :func:`earliest_matches`.  A fingerprint bitmap keeps only candidate
    rows; each candidate is then compared byte for byte (so ``-0.0`` is
    not ``0.0`` and NaN payloads differ), and the earliest matches of
    each record are taken, as many as are still wanted.
    """

    def __init__(self, needles: np.ndarray):
        self.keys, counts = np.unique(
            _keys(np.ascontiguousarray(needles)), return_counts=True
        )
        self.remaining = counts.astype(np.int64)
        self.pending = len(needles)
        bits = min(22, max(10, len(self.keys).bit_length() + 6))
        self._mask = np.uint64((1 << bits) - 1)
        self._bitmap = np.zeros(1 << bits, dtype=bool)
        self._bitmap[row_fingerprints(self.keys) & self._mask] = True

    def take(
        self, rows: np.ndarray, fingerprints: np.ndarray, dead: np.ndarray | None = None
    ) -> np.ndarray:
        """Ascending indices of the rows of ``rows`` this call claims."""
        hit = self._bitmap[fingerprints & self._mask]
        if dead is not None:
            hit &= ~dead
        candidates = np.flatnonzero(hit)
        if not len(candidates):
            return candidates
        found = _keys(rows)[candidates]
        group = np.minimum(np.searchsorted(self.keys, found), len(self.keys) - 1)
        exact = self.keys[group] == found
        candidates, group = candidates[exact], group[exact]
        order = np.argsort(group, kind="stable")
        group = group[order]
        rank = np.arange(len(group)) - np.searchsorted(group, group)
        claimed = rank < self.remaining[group]
        self.remaining -= np.bincount(group[claimed], minlength=len(self.keys))
        self.pending = int(self.remaining.sum())
        return np.sort(candidates[order][claimed])

    def check(self) -> None:
        if self.pending:
            raise StorageError(
                f"{self.pending} deleted tuple(s) not present in store"
            )


def earliest_matches(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Indices of the earliest rows of ``haystack`` matching ``needles``.

    One row per needle, matched bitwise; raises :class:`StorageError` if
    any needle has no remaining match.
    """
    if haystack.dtype != needles.dtype:
        raise StorageError("remove with mismatched dtype")
    haystack = np.ascontiguousarray(haystack)
    wanted = _Needles(needles)
    hits = wanted.take(haystack, row_fingerprints(haystack))
    wanted.check()
    return hits


def _rebatch(
    chunks: Iterable[np.ndarray], batch_rows: int
) -> Iterator[np.ndarray]:
    """Re-slice a stream of arrays into exactly ``batch_rows``-sized batches.

    Only the final batch may be smaller.  Peak extra allocation is one
    batch (full input chunks pass through as views without copying).
    """
    pending: list[np.ndarray] = []
    pending_rows = 0
    for chunk in chunks:
        # Grid-aligned chunks (the steady state of a ShardedTable scan)
        # pass straight through without slicing.
        if not pending and len(chunk) == batch_rows:
            yield chunk
            continue
        start = 0
        while start < len(chunk):
            take = min(batch_rows - pending_rows, len(chunk) - start)
            piece = chunk[start : start + take]
            start += take
            if not pending and take == batch_rows:
                yield piece
                continue
            pending.append(piece)
            pending_rows += take
            if pending_rows == batch_rows:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, pending_rows = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


class SpillFile:
    """A headerless anonymous tempfile of fixed-width records for one node.

    Unlike :class:`~repro.storage.table.DiskTable` there is no header —
    the schema is carried in memory.
    """

    def __init__(
        self,
        schema: Schema,
        directory: str | os.PathLike | None = None,
        io_stats: IOStats | None = None,
    ):
        self._schema = schema
        self._io_stats = io_stats
        fd, self._path = tempfile.mkstemp(
            suffix=".spill",
            dir=None if directory is None else os.fspath(directory),
        )
        os.close(fd)
        self._n_rows = 0
        self._deleted = False
        if io_stats is not None:
            io_stats.record_spill_file()

    @property
    def path(self) -> str:
        return self._path

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._n_rows

    def _check_live(self) -> None:
        if self._deleted:
            raise StorageError(f"spill file {self._path} already deleted")

    def append(self, batch: np.ndarray) -> None:
        self._check_live()
        if batch.dtype != self._schema.dtype():
            raise StorageError("spill append with mismatched dtype")
        if batch.size == 0:
            return
        raw = np.ascontiguousarray(batch).view(np.uint8)
        with open(self._path, "ab") as fh:
            fh.write(raw.data)
        self._n_rows += len(batch)
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), raw.nbytes)

    def read_all(self) -> np.ndarray:
        """The full contents as a *writable* structured array.

        The raw bytes are copied into a mutable buffer before the numpy
        view is taken, so callers may mutate the result in place, which a
        read-only ``frombuffer`` over ``bytes`` would refuse.
        """
        self._check_live()
        dtype = self._schema.dtype()
        with open(self._path, "rb") as fh:
            raw = fh.read()
        if len(raw) != self._n_rows * dtype.itemsize:
            raise StorageError(
                f"spill file {self._path}: expected {self._n_rows} records, "
                f"found {len(raw)} bytes"
            )
        batch = np.frombuffer(bytearray(raw), dtype=dtype)
        if self._io_stats is not None:
            self._io_stats.record_read(len(batch), len(raw))
        return batch

    def iter_batches(self, batch_rows: int) -> Iterator[np.ndarray]:
        """Stream the contents as writable ``batch_rows``-sized batches.

        Reads the file sequentially; peak allocation is one batch, never
        the whole file — the point of spilling in the first place.
        """
        self._check_live()
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        dtype = self._schema.dtype()
        rec = dtype.itemsize
        remaining = self._n_rows
        with open(self._path, "rb", buffering=_io.DEFAULT_BUFFER_SIZE) as fh:
            while remaining > 0:
                take = min(batch_rows, remaining)
                raw = bytearray(take * rec)
                got = fh.readinto(raw)
                if got != take * rec:
                    raise StorageError(
                        f"spill file {self._path}: short read "
                        f"({got} of {take * rec} bytes)"
                    )
                remaining -= take
                if self._io_stats is not None:
                    self._io_stats.record_read(take, got)
                yield np.frombuffer(raw, dtype=dtype)

    def delete(self) -> None:
        """Remove the backing file; further use raises."""
        if not self._deleted:
            self._deleted = True
            try:
                os.remove(self._path)
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.delete()
        except Exception:
            pass


class TupleStore:
    """Held tuples for one node: RAM up to a budget, disk beyond it.

    The store preserves append order.  ``read_all`` always returns the full
    contents; ``remove`` deletes one stored row per needle (incremental
    deletion) and ``clear`` drops everything.

    In memory the store is a list of append-order chunks, each with an
    optional mask of removed ("dead") rows.  Row fingerprints
    (:func:`row_fingerprints`) are computed on a store's first ``remove``
    and kept up to date by later appends, so builds, which never delete,
    never pay for them.  Once a store has seen a remove, ``read_all``
    folds its live rows back into one chunk, so the chunk count stays
    small and repeated reads of an unchanged store copy nothing.
    """

    def __init__(
        self,
        schema: Schema,
        memory_budget_rows: int = 1 << 20,
        directory: str | os.PathLike | None = None,
        io_stats: IOStats | None = None,
    ):
        if memory_budget_rows < 0:
            raise ValueError("memory_budget_rows must be >= 0")
        self._schema = schema
        self._budget = memory_budget_rows
        self._directory = directory
        self._io_stats = io_stats
        self._chunks: list[np.ndarray] = []
        #: Per chunk: a mask of its removed rows, or None if all are live.
        self._dead: list[np.ndarray | None] = []
        #: Per chunk row fingerprints, once a remove has asked for them.
        self._fingerprints: list[np.ndarray] | None = None
        self._mem_rows = 0  # live rows in memory
        self._spill: SpillFile | None = None
        #: Redrawn by every change of contents or chunk layout, so a
        #: located removal can tell that its row indices went stale, and
        #: a finalize cache can key on the store's contents.
        self._version = next(_VERSIONS)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def spilled(self) -> bool:
        return self._spill is not None

    @property
    def version(self) -> int:
        """A process-wide unique name of the store's current state.

        Equal versions mean the same store with the same rows in the same
        order; any append, remove, clear or re-chunking draws a new one.
        """
        return self._version

    def __len__(self) -> int:
        spilled = 0 if self._spill is None else len(self._spill)
        return self._mem_rows + spilled

    def append(self, batch: np.ndarray) -> None:
        if batch.dtype != self._schema.dtype():
            raise StorageError("TupleStore append with mismatched dtype")
        if batch.size == 0:
            return
        if self._spill is None and self._mem_rows + len(batch) > self._budget:
            self._spill_out()
        self._version = next(_VERSIONS)
        if self._spill is not None:
            self._spill.append(batch)
        else:
            chunk = np.ascontiguousarray(batch)
            self._chunks.append(chunk)
            self._dead.append(None)
            if self._fingerprints is not None:
                self._fingerprints.append(row_fingerprints(chunk))
            self._mem_rows += len(chunk)

    def _live_chunks(self) -> Iterator[np.ndarray]:
        for chunk, dead in zip(self._chunks, self._dead):
            yield chunk if dead is None else chunk[~dead]

    def _set_chunks(self, chunks: list[np.ndarray]) -> None:
        self._version = next(_VERSIONS)
        self._chunks = chunks
        self._dead = [None] * len(chunks)
        self._fingerprints = None
        self._mem_rows = sum(map(len, chunks))

    def _spill_out(self) -> None:
        self._spill = SpillFile(self._schema, self._directory, self._io_stats)
        for chunk in self._live_chunks():
            self._spill.append(chunk)
        self._set_chunks([])

    def read_all(self) -> np.ndarray:
        if self._spill is not None:
            # A spilled store keeps nothing in memory: appends go to the file.
            return self._spill.read_all()
        if not self._chunks:
            return self._schema.empty(0)
        if self._fingerprints is None:
            return _join(list(self._live_chunks()))
        if len(self._chunks) > 1 or self._dead[0] is not None:
            fingerprints = _join(
                [f if d is None else f[~d] for f, d in zip(self._fingerprints, self._dead)]
            )
            self._set_chunks([_join(list(self._live_chunks()))])
            self._fingerprints = [fingerprints]
        return self._chunks[0]

    def iter_batches(self, batch_rows: int) -> Iterator[np.ndarray]:
        """Yield the live contents re-batched to ``batch_rows``.

        Spilled contents are streamed from the file one batch at a time —
        peak allocation stays O(batch) regardless of store size, so a
        store that outgrew memory is never materialized whole just to be
        re-batched.
        """
        if self._spill is not None:
            yield from _rebatch(self._spill.iter_batches(batch_rows), batch_rows)
        else:
            yield from _rebatch(self._live_chunks(), batch_rows)

    def locate(self, needles: np.ndarray) -> "StoreRemoval":
        """Find one stored row per needle, changing nothing yet.

        The earliest live occurrence of each record goes first, matched
        bitwise.  Raises :class:`StorageError` — with the store untouched
        — if any needle has no remaining match: deleting a tuple that was
        never inserted is a caller bug the paper's model does not allow.
        The returned removal applies with :meth:`StoreRemoval.commit`; a
        caller deleting from several stores locates in all of them first,
        so a refused delete changes none.
        """
        if needles.dtype != self._schema.dtype():
            raise StorageError("TupleStore remove with mismatched dtype")
        wanted = _Needles(needles)
        hits: list[np.ndarray] = []
        if wanted.pending and self._spill is not None:
            offset = 0
            for batch in self._spill.iter_batches(SPILL_SCAN_ROWS):
                hits.append(wanted.take(batch, row_fingerprints(batch)) + offset)
                offset += len(batch)
                del batch  # one batch in memory: free it before the next read
                if not wanted.pending:
                    break
        elif wanted.pending:
            if self._fingerprints is None:
                self._fingerprints = [row_fingerprints(c) for c in self._chunks]
            for chunk, fingerprints, dead in zip(
                self._chunks, self._fingerprints, self._dead
            ):
                hits.append(wanted.take(chunk, fingerprints, dead))
                if not wanted.pending:
                    break
        wanted.check()
        return StoreRemoval(self, hits)

    def remove(self, needles: np.ndarray) -> None:
        """Delete one stored row per needle (see :meth:`locate`)."""
        self.locate(needles).commit()

    def _remove_in_memory(self, hits: list[np.ndarray]) -> None:
        """Mark rows dead; drop all-dead chunks, compact mostly-dead ones."""
        self._version = next(_VERSIONS)
        chunks, dead_masks, fingerprints = [], [], []
        for i, (chunk, dead, prints) in enumerate(
            zip(self._chunks, self._dead, self._fingerprints)
        ):
            if i < len(hits) and len(hits[i]):
                dead = np.zeros(len(chunk), dtype=bool) if dead is None else dead
                dead[hits[i]] = True
                self._mem_rows -= len(hits[i])
                n_dead = int(dead.sum())
                if n_dead == len(chunk):
                    continue
                if 2 * n_dead > len(chunk):
                    chunk, prints, dead = chunk[~dead], prints[~dead], None
            chunks.append(chunk)
            dead_masks.append(dead)
            fingerprints.append(prints)
        self._chunks, self._dead, self._fingerprints = chunks, dead_masks, fingerprints

    def _remove_spilled(self, hits: np.ndarray) -> None:
        """Stream the survivors into a fresh spill file, or back into RAM.

        Two passes over the file (locate, then this one), one batch at a
        time: a delete never holds the spilled contents in memory.
        """
        survivors = len(self._spill) - len(hits)
        fresh = None
        if survivors > self._budget:
            fresh = SpillFile(self._schema, self._directory, self._io_stats)
        kept: list[np.ndarray] = []
        offset = 0
        try:
            for batch in self._spill.iter_batches(SPILL_SCAN_ROWS):
                start, offset = offset, offset + len(batch)
                lo, hi = np.searchsorted(hits, [start, offset])
                if hi > lo:
                    batch = np.delete(batch, hits[lo:hi] - start)
                if fresh is not None:
                    fresh.append(batch)
                elif len(batch):
                    kept.append(batch)
                del batch
        except BaseException:
            if fresh is not None:
                fresh.delete()
            raise
        self._spill.delete()
        self._spill = fresh
        self._set_chunks(kept)

    def clear(self) -> None:
        """Drop all contents and delete the spill file."""
        self._set_chunks([])
        if self._spill is not None:
            self._spill.delete()
            self._spill = None


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class StoreRemoval:
    """Rows one :meth:`TupleStore.locate` found, ready to delete.

    :meth:`commit` applies the removal; it must run before the store
    changes again, and a removal commits at most once.
    """

    def __init__(self, store: TupleStore, hits: list[np.ndarray]):
        self._store = store
        self._hits = hits
        self._version = store._version

    def commit(self) -> None:
        store = self._store
        if store._version != self._version:
            raise StorageError("TupleStore changed between locate and commit")
        self._version = None
        if not any(len(h) for h in self._hits):
            return
        if store._spill is not None:
            store._remove_spilled(np.concatenate(self._hits))
        else:
            store._remove_in_memory(self._hits)
