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
"""

from __future__ import annotations

import io as _io
import os
import tempfile
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import StorageError
from .io_stats import IOStats
from .schema import Schema


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
        raw = np.ascontiguousarray(batch).tobytes()
        with open(self._path, "ab") as fh:
            fh.write(raw)
        self._n_rows += len(batch)
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), len(raw))

    def read_all(self) -> np.ndarray:
        """The full contents as a *writable* structured array.

        The raw bytes are copied into a mutable buffer before the numpy
        view is taken — callers (e.g. incremental deletion's
        ``multiset_remove``) mutate the result in place, which a read-only
        ``frombuffer`` over ``bytes`` would refuse.
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
                raw = fh.read(take * rec)
                if len(raw) != take * rec:
                    raise StorageError(
                        f"spill file {self._path}: short read "
                        f"({len(raw)} of {take * rec} bytes)"
                    )
                remaining -= take
                if self._io_stats is not None:
                    self._io_stats.record_read(take, len(raw))
                yield np.frombuffer(bytearray(raw), dtype=dtype)

    def rewrite(self, batch: np.ndarray) -> None:
        """Replace the file's contents (used when deleting tuples)."""
        self._check_live()
        if batch.dtype != self._schema.dtype():
            raise StorageError("spill rewrite with mismatched dtype")
        raw = np.ascontiguousarray(batch).tobytes()
        with open(self._path, "wb") as fh:
            fh.write(raw)
        self._n_rows = len(batch)
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), len(raw))

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
    contents (memory + spilled); ``replace`` substitutes the contents, used
    by incremental deletion.
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
        self._mem_rows = 0
        self._spill: SpillFile | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def spilled(self) -> bool:
        return self._spill is not None

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
        if self._spill is not None:
            self._spill.append(batch)
        else:
            self._chunks.append(np.ascontiguousarray(batch))
            self._mem_rows += len(batch)

    def _spill_out(self) -> None:
        self._spill = SpillFile(self._schema, self._directory, self._io_stats)
        for chunk in self._chunks:
            self._spill.append(chunk)
        self._chunks.clear()
        self._mem_rows = 0

    def read_all(self) -> np.ndarray:
        parts: list[np.ndarray] = []
        if self._spill is not None:
            parts.append(self._spill.read_all())
        parts.extend(self._chunks)
        if not parts:
            return self._schema.empty(0)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def iter_batches(self, batch_rows: int) -> Iterator[np.ndarray]:
        """Yield the contents re-batched to ``batch_rows``.

        Spilled contents are streamed from the file one batch at a time —
        peak allocation stays O(batch) regardless of store size, so a
        store that outgrew memory is never materialized whole just to be
        re-batched.
        """

        def chunks() -> Iterator[np.ndarray]:
            if self._spill is not None:
                yield from self._spill.iter_batches(batch_rows)
            yield from self._chunks

        yield from _rebatch(chunks(), batch_rows)

    def replace(self, batch: np.ndarray) -> None:
        """Substitute the store's entire contents with ``batch``.

        The memory budget applies exactly as it does to :meth:`append`: a
        replacement larger than the budget goes to the spill file even
        when the store previously fit in memory.
        """
        if batch.dtype != self._schema.dtype():
            raise StorageError("TupleStore replace with mismatched dtype")
        if self._spill is not None and len(batch) <= self._budget:
            self._spill.delete()
            self._spill = None
        if self._spill is None and len(batch) > self._budget:
            self._chunks.clear()
            self._mem_rows = 0
            self._spill = SpillFile(self._schema, self._directory, self._io_stats)
        if self._spill is not None:
            self._spill.rewrite(batch)
            self._chunks.clear()
            self._mem_rows = 0
        else:
            self._chunks = [np.ascontiguousarray(batch)] if batch.size else []
            self._mem_rows = len(batch)

    def clear(self) -> None:
        """Drop all contents and delete the spill file."""
        self._chunks.clear()
        self._mem_rows = 0
        if self._spill is not None:
            self._spill.delete()
            self._spill = None
