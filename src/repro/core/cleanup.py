"""The cleanup scan (§3.3): serial streaming or parallel batch routing.

The scan is a pure accumulation: every table batch is routed down the
read-only skeleton and per-node statistics are incremented.  Increments
commute, but held/family store *row order* must match the serial scan for
byte-identical spill files — so the parallel path computes per-batch
:class:`~repro.core.state.NodeDelta` lists on worker threads (the numpy
routing kernels release the GIL) and applies them in the parent in scan
order.  The result is bit-identical to the serial scan at any worker
count.

Worker threads are used even when the configured backend is ``process``:
the skeleton's statistics live in the parent's heap, and shipping them
across process boundaries would cost more than the routing it saves.

For a :class:`~repro.storage.DiskTable` the batches themselves are read
inside the workers (``read_slice`` opens a private file handle per call),
each charging a private :class:`~repro.storage.IOStats` that is merged
into the experiment's shared instance in deterministic batch order.

Shared routing kernel: the *level-wise* cleanup scans (RainForest and
QUEST, which route finished batches down a frozen partial
:class:`~repro.tree.DecisionTree`) go through the serving layer's
compiled array kernel — ``tree.compile()`` /
:class:`repro.serve.CompiledPredictor` — so production inference and
the training scans exercise one routing implementation.  BOAT's own
cleanup scan below keeps its delta path: it routes down the mutable
*skeleton* (confidence intervals, held stores), which is per-node state
the read-only compiled form deliberately does not carry.

Recovery hooks: a resumed build passes ``start_row`` (the checkpointed
scan offset — rows before it were already accumulated by the crashed
process) and a checkpointed build passes ``progress`` (called with the
absolute row offset after each batch is applied, in scan order, from the
driving thread only — which is what makes checkpoint writes safe at any
worker count).  Both default to the plain full scan.

Tracing: :func:`cleanup_scan` opens its own ``cleanup`` span (so every
caller — the static driver, the incremental rebuild — gets the same
attribution) and, on the worker-read path, one detached child span per
worker thread recording that worker's private I/O.  Worker spans are a
*breakdown* of the parent's counters, not additive to them: the private
counters are merged into the shared instance the parent span diffs.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

import numpy as np

from ..config import DEFAULT_BATCH_ROWS
from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..parallel import WorkerPool
from ..storage import DiskTable, IOStats, Schema, Table, bounded_scan
from .state import BoatNode, apply_batch_delta, compute_batch_delta, stream_batch

#: Progress callback: absolute rows scanned so far (start_row included).
ProgressFn = Callable[[int], None]


def sql_source(table: Table):
    """Unwrap retry/decorator layers down to a ``SqlTable``, if any."""
    from ..storage.sql import SqlTable

    current: object = table
    while not isinstance(current, SqlTable):
        current = getattr(current, "inner", None)
        if current is None:
            return None
    return current


def cleanup_scan(
    root: BoatNode,
    table: Table,
    schema: Schema,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    pool: WorkerPool | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
    start_row: int = 0,
    progress: ProgressFn | None = None,
    kernels: KernelBackend = DEFAULT_KERNELS,
    stop_row: int | None = None,
    sql_pushdown: bool = False,
) -> None:
    """Stream the table down the skeleton, in parallel when possible.

    ``stop_row`` (exclusive, ``None`` = table end) bounds the scan to a
    row interval — the unit granularity of the elastic sharded build
    (``repro.shard.elastic``), where one shard may execute only the
    uncovered tail of its range after a checkpoint/reshard.

    ``sql_pushdown`` asks for the in-database cleanup: when the table (or
    the innermost layer of a wrapper chain) is a
    :class:`~repro.storage.sql.SqlTable` and the scan covers the whole
    table, the per-node statistics are computed as grouped aggregation
    queries and only held/family rows are exported (see docs/SQL.md).
    Any other table, or a sub-range scan, falls back to the normal path —
    the output is byte-identical either way.
    """
    with tracer.span("cleanup", batch_rows=batch_rows) as span:
        if start_row:
            span.set(resumed_from_row=start_row)
        if stop_row is not None:
            span.set(stop_row=stop_row)
        if sql_pushdown and start_row == 0 and stop_row is None:
            source = sql_source(table)
            if source is not None:
                from .sql_pushdown import sql_pushdown_scan

                span.set(workers=1, sql_pushdown=True)
                sql_pushdown_scan(
                    root, source, schema, batch_rows, progress=progress
                )
                return
        if pool is None or not pool.is_parallel:
            span.set(workers=1)
            rows_done = start_row
            for batch in bounded_scan(table, batch_rows, start_row, stop_row):
                stream_batch(root, batch, schema, sign=1, kernels=kernels)
                rows_done += len(batch)
                if progress is not None:
                    progress(rows_done)
            return
        span.set(workers=pool.n_workers)
        if pool.backend == "thread":
            _parallel_scan(
                root,
                table,
                schema,
                batch_rows,
                pool,
                tracer,
                start_row,
                progress,
                kernels,
                stop_row,
            )
        else:
            with WorkerPool(pool.n_workers, "thread", tracer=tracer) as thread_pool:
                _parallel_scan(
                    root,
                    table,
                    schema,
                    batch_rows,
                    thread_pool,
                    tracer,
                    start_row,
                    progress,
                    kernels,
                    stop_row,
                )


def _parallel_scan(
    root: BoatNode,
    table: Table,
    schema: Schema,
    batch_rows: int,
    pool: WorkerPool,
    tracer: Tracer | NullTracer,
    start_row: int = 0,
    progress: ProgressFn | None = None,
    kernels: KernelBackend = DEFAULT_KERNELS,
    stop_row: int | None = None,
) -> None:
    io = table.io_stats
    if isinstance(table, DiskTable):
        n = len(table) if stop_row is None else min(stop_row, len(table))
        ranges = [
            (start, min(start + batch_rows, n))
            for start in range(start_row, n, batch_rows)
        ]

        def scan_range(bounds: tuple[int, int]) -> tuple[list, IOStats, str]:
            worker_io = IOStats()
            batch = table.read_slice(bounds[0], bounds[1], io_stats=worker_io)
            deltas = compute_batch_delta(root, batch, schema, kernels)
            return deltas, worker_io, threading.current_thread().name

        # One detached span per worker thread, numbered in first-result
        # order (batch results arrive in scan order, so numbering is
        # deterministic for a given schedule; counters are deterministic
        # regardless because each batch is charged exactly once).
        worker_spans: dict[str, object] = {}
        for (deltas, worker_io, worker_name), bounds in zip(
            pool.imap(scan_range, ranges), ranges
        ):
            apply_batch_delta(deltas)
            if io is not None:
                io.merge(worker_io)
            if tracer.enabled:
                span = worker_spans.get(worker_name)
                if span is None:
                    span = tracer.worker_span(f"worker-{len(worker_spans)}")
                    worker_spans[worker_name] = span
                span.add_io(worker_io)
                span.bump("batches")
            if progress is not None:
                progress(bounds[1])
        for span in worker_spans.values():
            tracer.attach(span)
        if io is not None and start_row == 0 and n == len(table):
            io.record_full_scan()
        return

    # Generic tables (e.g. MemoryTable): the parent iterates the scan —
    # which keeps the table's own charging semantics — and workers route.
    def route(batch) -> tuple[list, int]:
        return compute_batch_delta(root, batch, schema, kernels), len(batch)

    rows_done = start_row
    for deltas, n_rows in pool.imap(
        route, bounded_scan(table, batch_rows, start_row, stop_row)
    ):
        apply_batch_delta(deltas)
        rows_done += n_rows
        if progress is not None:
            progress(rows_done)


#: One consumer of a shared cleanup scan: called with every source batch
#: and its absolute row offset, in scan order.
SinkFn = Callable[[np.ndarray, int], None]


def shared_cleanup_scan(
    table: Table,
    sinks: list[SinkFn],
    batch_rows: int = DEFAULT_BATCH_ROWS,
    pool: WorkerPool | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
    labels: list[str] | None = None,
) -> None:
    """One physical scan feeding many skeletons (crossval folds, forest members).

    Every batch of ``table`` is handed to every sink as ``sink(batch,
    offset)``; each sink routes it into its own skeleton (filtering,
    fold-masking, or resample-expanding first as it sees fit).  The table
    is read exactly once regardless of ``len(sinks)`` — this is the scan
    sharing that keeps k-fold cross-validation and M-member bagged
    ensembles inside BOAT's global two-scan budget.

    Ordering guarantee: each sink sees the batches in scan order, one at a
    time — with a pool, one thread task per sink per batch with a barrier
    between batches.  Sinks touch disjoint skeletons, so tasks never share
    mutable state, and the per-sink stream order (hence every per-member
    spill file and float accumulation) is identical at any worker count.

    Tracing: one ``cleanup`` span for the whole shared scan with one
    detached child span per sink (named by ``labels``, default
    ``member-<i>``) counting the batches that sink consumed.
    """
    with tracer.span(
        "cleanup", batch_rows=batch_rows, shared_sinks=len(sinks)
    ) as span:
        names = labels or [f"member-{i}" for i in range(len(sinks))]
        child_spans = (
            [tracer.worker_span(name) for name in names] if tracer.enabled else None
        )

        def bump_children() -> None:
            if child_spans is not None:
                for child in child_spans:
                    child.bump("batches")

        def drain_serial() -> None:
            offset = 0
            for batch in table.scan(batch_rows):
                for sink in sinks:
                    sink(batch, offset)
                bump_children()
                offset += len(batch)

        def drain(thread_pool: WorkerPool) -> None:
            # Double-buffered scan: a reader thread keeps the next batch
            # in flight while the sinks stream the current one, so the
            # table read (the expensive part on a sequential device)
            # overlaps member compute.  Batch order, per-batch barrier,
            # and per-sink stream order are untouched.
            batches: queue.Queue = queue.Queue(maxsize=2)

            def read_ahead() -> None:
                try:
                    offset = 0
                    for batch in table.scan(batch_rows):
                        batches.put((batch, offset))
                        offset += len(batch)
                    batches.put(None)
                except BaseException as exc:
                    batches.put(exc)

            reader = threading.Thread(
                target=read_ahead, name="shared-scan-reader", daemon=True
            )
            reader.start()
            try:
                while True:
                    item = batches.get()
                    if item is None:
                        break
                    if isinstance(item, BaseException):
                        raise item
                    batch, offset = item

                    def route_one(i: int, batch=batch, offset=offset) -> int:
                        sinks[i](batch, offset)
                        return i

                    for _ in thread_pool.map(route_one, range(len(sinks))):
                        pass
                    bump_children()
            finally:
                # If routing raised mid-scan the reader may be blocked on
                # a full queue; drain it until the thread exits.
                while reader.is_alive():
                    try:
                        batches.get_nowait()
                    except queue.Empty:
                        pass
                    reader.join(timeout=0.01)

        if pool is None or not pool.is_parallel or len(sinks) == 1:
            span.set(workers=1)
            drain_serial()
        elif pool.backend == "thread":
            span.set(workers=pool.n_workers)
            drain(pool)
        else:
            # Skeleton statistics live in the parent's heap; route on
            # threads even when the build pool is process-backed (the same
            # reasoning as cleanup_scan above).
            span.set(workers=pool.n_workers)
            with WorkerPool(pool.n_workers, "thread", tracer=tracer) as thread_pool:
                drain(thread_pool)
        if child_spans is not None:
            for child in child_spans:
                tracer.attach(child, span)
