"""Training database tables.

Two implementations of one interface:

* :class:`DiskTable` — the paper's setting: a binary file of fixed-width
  records that does not fit in memory and must be scanned sequentially.
  Every scan and append is charged to an :class:`~repro.storage.io_stats.IOStats`.
* :class:`MemoryTable` — the in-memory samples (D', bootstrap samples,
  collected families) the algorithms work on once data fits in RAM.
  Operations on it are free of I/O charges, matching the paper's cost model.

Scans yield batches (numpy structured arrays) rather than single records;
all algorithms in this library are vectorized over batches.
"""

from __future__ import annotations

import io
import json
import os
import struct
import time
from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from ..config import DEFAULT_BATCH_ROWS
from ..exceptions import SchemaError, StorageError, TableClosedError
from .io_stats import IOStats
from .schema import Schema

_MAGIC = b"BOATTBL1"
_HEADER_ALIGN = 4096


def _skip_rows(
    batches: Iterator[np.ndarray], n_rows: int
) -> Iterator[np.ndarray]:
    """Drop the first ``n_rows`` rows of a batch stream."""
    to_skip = n_rows
    for batch in batches:
        if to_skip >= len(batch):
            to_skip -= len(batch)
            continue
        yield batch[to_skip:] if to_skip else batch
        to_skip = 0


def bounded_scan(
    table: "Table",
    batch_rows: int = DEFAULT_BATCH_ROWS,
    start_row: int = 0,
    stop_row: int | None = None,
) -> Iterator[np.ndarray]:
    """Scan ``table`` rows ``[start_row, stop_row)``, as cheaply as it allows.

    Tables that support offset scans (``scan_supports_start_row``) seek
    straight to the offset; anything else is scanned from the top with
    the prefix discarded — correctness is unaffected, but the discarded
    rows are still read (and charged), so resumable builds should live
    on offset-capable tables.  ``stop_row`` (exclusive, ``None`` = table
    end) bounds the scan the same way: natively where the table supports
    it (``scan_supports_stop_row``), by clipping the emitted batches
    otherwise.
    """
    if start_row < 0:
        raise ValueError("start_row must be >= 0")
    if stop_row is not None:
        if getattr(table, "scan_supports_stop_row", False):
            yield from table.scan(
                batch_rows, start_row=start_row, stop_row=stop_row
            )
        else:
            rows_done = start_row
            for batch in bounded_scan(table, batch_rows, start_row):
                take = min(len(batch), stop_row - rows_done)
                if take > 0:
                    yield batch[:take] if take < len(batch) else batch
                    rows_done += take
                if rows_done >= stop_row:
                    return
        return
    if start_row == 0:
        yield from table.scan(batch_rows)
        return
    if getattr(table, "scan_supports_start_row", False):
        yield from table.scan(batch_rows, start_row=start_row)
        return
    yield from _skip_rows(table.scan(batch_rows), start_row)


class Table(ABC):
    """A scannable relation of training records."""

    #: Whether :meth:`scan` accepts a ``start_row`` keyword (seek instead
    #: of re-reading the prefix).  Implementations that can seek set this
    #: to True; :meth:`scan_columns` and resumable-scan helpers consult it.
    scan_supports_start_row = False
    #: Whether :meth:`scan` accepts a ``stop_row`` keyword (bounded scans
    #: truncate at the source instead of clipping emitted batches).
    scan_supports_stop_row = False

    def __init__(self, schema: Schema, io_stats: IOStats | None):
        self._schema = schema
        self._io_stats = io_stats

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def io_stats(self) -> IOStats | None:
        return self._io_stats

    @abstractmethod
    def __len__(self) -> int:
        """Number of records currently in the table."""

    @abstractmethod
    def scan(self, batch_rows: int = DEFAULT_BATCH_ROWS) -> Iterator[np.ndarray]:
        """Yield the table's records as structured-array batches, in order.

        A completed iteration counts as one full scan in the I/O stats.
        """

    def scan_columns(
        self,
        columns: list[str],
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
    ) -> Iterator[np.ndarray]:
        """Scan a column projection (RainForest's temporary projections).

        The default implementation projects each full-scan batch; the
        class label column is always included.  :class:`DiskTable`
        overrides the *charging*: a projection scan models RF-Vertical's
        per-attribute temporary files, so only the projected bytes are
        billed (and throttled), not the full record.

        ``start_row`` resumes a projected scan mid-table.  Tables whose
        ``scan_supports_start_row`` is set seek (the skipped prefix is
        neither read nor charged, and the resumed scan does not count as
        a full scan); the rest fall back to reading and discarding the
        prefix.
        """
        if start_row < 0:
            raise ValueError("start_row must be >= 0")
        fields = self._projection_fields(columns)
        if start_row == 0:
            source = self.scan(batch_rows)
        elif self.scan_supports_start_row:
            source = self.scan(batch_rows, start_row=start_row)
        else:
            source = _skip_rows(self.scan(batch_rows), start_row)
        for batch in source:
            yield batch[fields]

    def _projection_fields(self, columns: list[str]) -> list[str]:
        from .schema import CLASS_COLUMN

        fields = list(dict.fromkeys(columns))
        if CLASS_COLUMN not in fields:
            fields.append(CLASS_COLUMN)
        return fields

    @abstractmethod
    def append(self, batch: np.ndarray) -> None:
        """Append a batch of records (validated against the schema)."""

    def read_all(self, batch_rows: int = DEFAULT_BATCH_ROWS) -> np.ndarray:
        """Materialize the whole table as one structured array."""
        batches = list(self.scan(batch_rows))
        if not batches:
            return self._schema.empty(0)
        return np.concatenate(batches)

    def close(self) -> None:  # noqa: B027 - optional hook
        """Release resources; further use raises :class:`TableClosedError`."""

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemoryTable(Table):
    """An in-memory table backed by a list of structured arrays.

    Appends are O(1); :meth:`scan` yields stored chunks re-batched to the
    requested size.  No I/O is charged (this models the paper's "family
    fits in memory" regime) unless an ``io_stats`` is passed explicitly.
    """

    #: Seek-resume parity with :class:`DiskTable`: ``scan(start_row=)``
    #: slices into the stored chunks without touching the prefix, so
    #: :class:`~repro.recovery.RetryingTable` and shard workers behave
    #: identically over in-memory shards in tests.
    scan_supports_start_row = True
    scan_supports_stop_row = True

    def __init__(
        self,
        schema: Schema,
        data: np.ndarray | None = None,
        io_stats: IOStats | None = None,
    ):
        super().__init__(schema, io_stats)
        self._chunks: list[np.ndarray] = []
        self._n_rows = 0
        self._closed = False
        if data is not None:
            self.append(data)

    def _check_open(self) -> None:
        if self._closed:
            raise TableClosedError("MemoryTable is closed")

    def __len__(self) -> int:
        return self._n_rows

    def append(self, batch: np.ndarray) -> None:
        self._check_open()
        self._schema.validate_batch(batch)
        if batch.size == 0:
            return
        self._chunks.append(np.ascontiguousarray(batch))
        self._n_rows += len(batch)
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), batch.nbytes)

    def scan(
        self,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
        stop_row: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Yield batches in order, optionally from ``start_row`` on.

        As with :meth:`DiskTable.scan`, a partial scan charges only the
        rows it emits and does not count as a full scan.  ``stop_row``
        (exclusive) truncates the scan; a scan that does not cover the
        whole table is never counted as a full scan.
        """
        self._check_open()
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if start_row < 0:
            raise ValueError("start_row must be >= 0")
        rows_at_start = self._n_rows
        limit = (
            rows_at_start
            if stop_row is None
            else min(stop_row, rows_at_start)
        )
        to_emit = max(limit - start_row, 0)
        pending: list[np.ndarray] = []
        pending_rows = 0
        to_skip = start_row
        for chunk in list(self._chunks):
            if to_emit <= 0:
                break
            if to_skip >= len(chunk):
                to_skip -= len(chunk)
                continue
            start = to_skip
            to_skip = 0
            while start < len(chunk) and to_emit > 0:
                take = min(
                    batch_rows - pending_rows, len(chunk) - start, to_emit
                )
                pending.append(chunk[start : start + take])
                pending_rows += take
                start += take
                to_emit -= take
                if pending_rows == batch_rows:
                    yield self._emit(pending)
                    pending, pending_rows = [], 0
        if pending_rows:
            yield self._emit(pending)
        if (
            self._io_stats is not None
            and start_row == 0
            and limit == rows_at_start
        ):
            self._io_stats.record_full_scan()

    def _emit(self, parts: list[np.ndarray]) -> np.ndarray:
        batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if self._io_stats is not None:
            self._io_stats.record_read(len(batch), batch.nbytes)
        return batch

    def compact(self) -> np.ndarray:
        """Merge internal chunks into one array and return it (no charge)."""
        self._check_open()
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        elif not self._chunks:
            self._chunks = [self._schema.empty(0)]
        return self._chunks[0]

    def close(self) -> None:
        self._chunks.clear()
        self._n_rows = 0
        self._closed = True


class DiskTable(Table):
    """A paged binary file of fixed-width records with a self-describing header.

    Layout: ``BOATTBL1`` magic, a uint32 little-endian length, the schema as
    JSON, zero padding to a 4096-byte boundary, then packed records.  The
    record count is derived from the file size, so appends need no header
    rewrite and a crash mid-append loses at most the trailing partial record
    (detected and reported on open).
    """

    #: ``scan`` accepts ``start_row`` (resumed scans seek instead of
    #: re-reading the prefix) — see :func:`bounded_scan`.
    scan_supports_start_row = True
    scan_supports_stop_row = True

    def __init__(
        self,
        path: str | os.PathLike,
        schema: Schema,
        io_stats: IOStats | None = None,
        _existing: bool = False,
        simulated_mbps: float | None = None,
    ):
        super().__init__(schema, io_stats)
        self._path = os.fspath(path)
        self._closed = False
        self._simulated_mbps: float | None = None
        self.set_simulated_throughput(simulated_mbps)
        if _existing:
            self._data_offset = self._read_header_offset()
        else:
            self._data_offset = self._write_header()
        self._n_rows = self._derive_row_count()

    def set_simulated_throughput(self, mbps: float | None) -> None:
        """Throttle every read/write to model a sequential-I/O device.

        The paper's 1999 testbed was I/O-bound: a 400 MB training file on
        a ~10 MB/s disk made each scan cost ~40 s, which is what BOAT's
        two-scan guarantee buys.  Modern page-cached NVMe hides that cost
        entirely, so benchmarks can opt into a simulated throughput (in
        MB/s); ``None`` or 0 disables the simulation.
        """
        if mbps is not None and mbps <= 0:
            mbps = None
        self._simulated_mbps = mbps

    def _throttle(self, nbytes: int) -> None:
        if self._simulated_mbps is not None and nbytes > 0:
            time.sleep(nbytes / (self._simulated_mbps * 1e6))

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        schema: Schema,
        io_stats: IOStats | None = None,
    ) -> "DiskTable":
        """Create a new, empty table file (truncating any existing file)."""
        return cls(path, schema, io_stats)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        io_stats: IOStats | None = None,
        simulated_mbps: float | None = None,
    ) -> "DiskTable":
        """Open an existing table file, reading its schema from the header."""
        schema = cls._read_schema(path)
        return cls(
            path, schema, io_stats, _existing=True, simulated_mbps=simulated_mbps
        )

    @staticmethod
    def _read_schema(path: str | os.PathLike) -> Schema:
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise StorageError(f"{path}: not a BOAT table (bad magic {magic!r})")
            (json_len,) = struct.unpack("<I", fh.read(4))
            try:
                return Schema.from_json(fh.read(json_len).decode("utf-8"))
            except (UnicodeDecodeError, SchemaError) as exc:
                raise StorageError(f"{path}: corrupt schema header: {exc}") from exc

    # -- header handling -----------------------------------------------------

    def _write_header(self) -> int:
        payload = self._schema.to_json().encode("utf-8")
        header = _MAGIC + struct.pack("<I", len(payload)) + payload
        offset = -(-len(header) // _HEADER_ALIGN) * _HEADER_ALIGN
        with open(self._path, "wb") as fh:
            fh.write(header.ljust(offset, b"\0"))
        return offset

    def _read_header_offset(self) -> int:
        with open(self._path, "rb") as fh:
            fh.seek(len(_MAGIC))
            (json_len,) = struct.unpack("<I", fh.read(4))
        header_len = len(_MAGIC) + 4 + json_len
        return -(-header_len // _HEADER_ALIGN) * _HEADER_ALIGN

    def _derive_row_count(self) -> int:
        data_bytes = os.path.getsize(self._path) - self._data_offset
        if data_bytes < 0:
            raise StorageError(f"{self._path}: truncated header")
        rec = self._schema.record_size
        if data_bytes % rec:
            raise StorageError(
                f"{self._path}: {data_bytes} data bytes is not a multiple of "
                f"record size {rec} (torn append?)"
            )
        return data_bytes // rec

    # -- Table interface -------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TableClosedError(f"DiskTable {self._path} is closed")

    @property
    def path(self) -> str:
        return self._path

    def __len__(self) -> int:
        return self._n_rows

    def append(self, batch: np.ndarray) -> None:
        self._check_open()
        self._schema.validate_batch(batch)
        if batch.size == 0:
            return
        raw = np.ascontiguousarray(batch).tobytes()
        with open(self._path, "ab") as fh:
            fh.write(raw)
        self._n_rows += len(batch)
        self._throttle(len(raw))
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), len(raw))

    def scan(
        self,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
        stop_row: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Yield batches in record order, optionally from ``start_row`` on.

        A partial scan (``start_row > 0`` — a resumed cleanup scan
        continuing from a checkpoint offset — or ``stop_row`` short of
        the end, used by :class:`ShardedTable` to grid-align shard
        boundaries) charges only the rows it actually reads and does
        *not* count as a full scan.
        """
        self._check_open()
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if start_row < 0:
            raise ValueError("start_row must be >= 0")
        dtype = self._schema.dtype()
        rec = dtype.itemsize
        # Snapshot the row count so concurrent appends during a scan
        # (which the algorithms never do, but tests might) see a stable view.
        rows_at_start = self._n_rows
        limit = (
            rows_at_start
            if stop_row is None
            else min(stop_row, rows_at_start)
        )
        remaining = max(limit - start_row, 0)
        with open(self._path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as fh:
            fh.seek(self._data_offset + start_row * rec)
            while remaining > 0:
                take = min(batch_rows, remaining)
                raw = fh.read(take * rec)
                if len(raw) != take * rec:
                    raise StorageError(
                        f"{self._path}: short read ({len(raw)} of {take * rec} bytes)"
                    )
                batch = np.frombuffer(raw, dtype=dtype)
                remaining -= take
                self._throttle(len(raw))
                if self._io_stats is not None:
                    self._io_stats.record_read(len(batch), len(raw))
                yield batch
        if (
            self._io_stats is not None
            and start_row == 0
            and limit == rows_at_start
        ):
            self._io_stats.record_full_scan()

    def scan_columns(
        self,
        columns: list[str],
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
        stop_row: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Projection scan billed at projected width (see base docstring).

        Models RF-Vertical reading a temporary per-attribute projection
        file: the underlying row file is read, but the charge (and the
        simulated-device throttle) covers only the projected columns.
        Like :meth:`scan`, ``start_row > 0`` seeks past the prefix
        without reading or charging it, ``stop_row`` truncates the scan,
        and a scan not covering the whole table is not a full scan.
        """
        self._check_open()
        if start_row < 0:
            raise ValueError("start_row must be >= 0")
        fields = self._projection_fields(columns)
        dtype = self._schema.dtype()
        projected_bytes = sum(dtype[name].itemsize for name in fields)
        full_bytes = dtype.itemsize
        rows_at_start = self._n_rows
        limit = (
            rows_at_start
            if stop_row is None
            else min(stop_row, rows_at_start)
        )
        remaining = max(limit - start_row, 0)
        with open(self._path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as fh:
            fh.seek(self._data_offset + start_row * full_bytes)
            while remaining > 0:
                take = min(batch_rows, remaining)
                raw = fh.read(take * full_bytes)
                if len(raw) != take * full_bytes:
                    raise StorageError(
                        f"{self._path}: short read in projection scan"
                    )
                batch = np.frombuffer(raw, dtype=dtype)[fields]
                remaining -= take
                self._throttle(take * projected_bytes)
                if self._io_stats is not None:
                    self._io_stats.record_read(take, take * projected_bytes)
                yield batch
        if (
            self._io_stats is not None
            and start_row == 0
            and limit == rows_at_start
        ):
            self._io_stats.record_full_scan()

    def read_slice(self, start: int, stop: int) -> np.ndarray:
        """Read records ``[start, stop)`` by offset (charged as reads).

        Each call opens its own file handle, so concurrent slice reads
        are safe.
        """
        self._check_open()
        if not 0 <= start <= stop <= self._n_rows:
            raise IndexError(f"slice [{start}, {stop}) out of range 0..{self._n_rows}")
        dtype = self._schema.dtype()
        rec = dtype.itemsize
        with open(self._path, "rb") as fh:
            fh.seek(self._data_offset + start * rec)
            raw = fh.read((stop - start) * rec)
        if len(raw) != (stop - start) * rec:
            raise StorageError(f"{self._path}: short read in read_slice")
        batch = np.frombuffer(raw, dtype=dtype)
        self._throttle(len(raw))
        if self._io_stats is not None:
            self._io_stats.record_read(len(batch), len(raw))
        return batch

    def close(self) -> None:
        self._closed = True

    def delete_file(self) -> None:
        """Close the table and remove its backing file."""
        self.close()
        try:
            os.remove(self._path)
        except FileNotFoundError:
            pass


def write_json_sidecar(path: str | os.PathLike, metadata: dict) -> None:
    """Write experiment metadata next to a table file (``<path>.meta.json``)."""
    with open(f"{os.fspath(path)}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)


def read_json_sidecar(path: str | os.PathLike) -> dict:
    """Read metadata written by :func:`write_json_sidecar`."""
    with open(f"{os.fspath(path)}.meta.json", encoding="utf-8") as fh:
        return json.load(fh)
