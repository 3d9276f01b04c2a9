"""The cleanup scan (§3.3): one driver for every execution mode.

The scan is a pure accumulation: every table batch is routed down the
read-only skeleton and per-node statistics are incremented.  Every
cleanup scan — a single-tree build, a resumed build's uncovered
intervals, a shard's unit, the incremental rebuild, and the shared scans
of forests and cross-validation — runs through one loop, :func:`_drive`:

* the driving thread reads the table in scan order
  (:func:`~repro.storage.bounded_scan`), so one reader per table models
  one sequential device and the table charges its own I/O counters;
* each (batch, sink) pair is one pure task on :meth:`WorkerPool.imap`.
  A sink routes the batch against immutable skeleton state (criteria,
  bucket edges) and returns a *commit* closure; a skeleton sink compiles
  its skeleton once per scan (:func:`~repro.core.terminals.compile_skeleton`)
  and turns each batch into per-node deltas with the terminal-partition
  kernel;
* the driving thread runs every commit in submission order — which keeps
  held/family store row order and QUEST's float summation order equal to
  the serial scan's — and calls ``progress`` after a batch's last commit.

A serial pool runs the same loop inline.  ``imap`` keeps at most
``2 * n_workers`` tasks in flight, which bounds read-ahead; reading the
next batch overlaps the routing of the batches in flight.  Routing runs
on threads even when the configured backend is ``process`` (decided once,
in the driver): the skeleton's statistics live in the parent's heap, and
shipping them across process boundaries would cost more than the routing
it saves.  The result is bit-identical to the serial scan at any worker
count.

Routing kernels: BOAT's cleanup routes every batch once, down the
*skeleton* (confidence intervals, held stores): each row goes to its
terminal (a held or family store), the batch is partitioned by terminal
in preorder, and every node's counts come from one keyed count per
statistic (:mod:`repro.core.terminals`).  The *level-wise* cleanup scans
(RainForest and QUEST, which route finished batches down a frozen
partial :class:`~repro.tree.DecisionTree`) go through the serving
layer's compiled array kernel — ``tree.compile()`` /
:class:`repro.serve.CompiledPredictor` — which carries no confidence
intervals or stores.

Recovery hooks: a resumed build scans each row interval no checkpointed
unit covers, passing ``start_row``/``stop_row`` (rows outside it were
already counted by the crashed process), and a checkpointed build passes
``record`` (called with each committed batch's deltas and its absolute
rows ``[lo, hi)``, in scan order, from the driving thread only — which
is what makes checkpoint writes safe at any worker count).  ``progress`` (the offset only) serves
the shard chaos hooks.  All default to the plain full scan.

Tracing: :func:`cleanup_scan` and :func:`shared_cleanup_scan` each open
one ``cleanup`` span (so every caller gets the same attribution);
the shared scan adds one detached child span per sink.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import DEFAULT_BATCH_ROWS
from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..parallel import WorkerPool
from ..storage import Schema, Table, bounded_scan
from .state import BoatNode, apply_batch_delta
from .terminals import NodeDelta, compile_skeleton

#: Progress callback: absolute rows scanned so far (start_row included).
ProgressFn = Callable[[int], None]

#: Record callback: one committed batch's deltas and its absolute rows
#: ``[lo, hi)``.
RecordFn = Callable[[list[NodeDelta], int, int], None]

#: Applies one routed batch to a skeleton; runs on the driving thread.
CommitFn = Callable[[], None]

#: One consumer of a cleanup scan: called as ``sink(batch, offset)`` with
#: every source batch and its absolute row offset, possibly on a worker
#: thread.  It must only read skeleton state and returns the commit that
#: applies the batch.
SinkFn = Callable[[np.ndarray, int], CommitFn]


def sql_source(table: Table):
    """Unwrap retry/decorator layers down to a ``SqlTable``, if any."""
    from ..storage.sql import SqlTable

    current: object = table
    while not isinstance(current, SqlTable):
        current = getattr(current, "inner", None)
        if current is None:
            return None
    return current


def skeleton_sink(
    root: BoatNode,
    schema: Schema,
    kernels: KernelBackend = DEFAULT_KERNELS,
    record: RecordFn | None = None,
) -> SinkFn:
    """The sink of a single-skeleton scan: route the whole batch.

    With ``record``, each commit also hands its deltas to ``record``.
    """
    plan = compile_skeleton(root, schema)

    def sink(batch: np.ndarray, offset: int) -> CommitFn:
        deltas = plan.deltas(batch, kernels)
        if record is None:
            return lambda: apply_batch_delta(deltas)

        def commit() -> None:
            apply_batch_delta(deltas)
            record(deltas, offset, offset + len(batch))

        return commit

    return sink


def _drive(
    table: Table,
    sinks: list[SinkFn],
    batch_rows: int,
    pool: WorkerPool | None,
    tracer: Tracer | NullTracer,
    start_row: int = 0,
    stop_row: int | None = None,
    progress: ProgressFn | None = None,
) -> tuple[int, int]:
    """Read in scan order, route on the pool, commit in order.

    Returns ``(workers, batches)``: the routing parallelism used and the
    number of source batches scanned.
    """
    if pool is None or not pool.is_parallel:
        pool = WorkerPool(1, "serial")
    elif pool.backend == "process":
        with WorkerPool(pool.n_workers, "thread", tracer=tracer) as threads:
            return _drive(
                table, sinks, batch_rows, threads, tracer, start_row, stop_row,
                progress,
            )

    def tasks():
        offset = start_row
        for batch in bounded_scan(table, batch_rows, start_row, stop_row):
            for sink in sinks:
                yield sink, batch, offset
            offset += len(batch)

    def route(task) -> tuple[CommitFn, int]:
        sink, batch, offset = task
        return sink(batch, offset), offset + len(batch)

    last = len(sinks) - 1
    batches = 0
    for i, (commit, end) in enumerate(pool.imap(route, tasks())):
        commit()
        if i % len(sinks) == last:
            batches += 1
            if progress is not None:
                progress(end)
    return pool.n_workers, batches


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
    record: RecordFn | None = None,
) -> None:
    """Stream the table down the skeleton, routing on ``pool`` if parallel.

    ``stop_row`` (exclusive, ``None`` = table end) bounds the scan to a
    row interval — the unit granularity of the elastic sharded build
    (``repro.shard.elastic``), where one shard may execute only the
    uncovered tail of its range after a checkpoint/reshard.

    ``sql_pushdown`` asks for the in-database cleanup: when the table (or
    the innermost layer of a wrapper chain) is a
    :class:`~repro.storage.sql.SqlTable`, the per-node statistics are
    computed as grouped aggregation queries and only held/family rows are
    exported (see docs/SQL.md).  Any other table falls back to the
    streamed scan — the output is byte-identical either way.  The
    pushdown covers the whole table only: a ``start_row``/``stop_row``
    sub-range raises :class:`ValueError`.  It streams no batches, so it
    calls neither ``progress`` nor ``record``.
    """
    if sql_pushdown and (start_row or stop_row is not None):
        raise ValueError(
            "sql_pushdown scans the whole table; it cannot run a "
            "start_row/stop_row sub-range"
        )
    with tracer.span("cleanup", batch_rows=batch_rows) as span:
        if start_row:
            span.set(resumed_from_row=start_row)
        if stop_row is not None:
            span.set(stop_row=stop_row)
        source = sql_source(table) if sql_pushdown else None
        if source is not None:
            from .sql_pushdown import sql_pushdown_scan

            span.set(workers=1, sql_pushdown=True)
            sql_pushdown_scan(root, source, schema, batch_rows)
            return
        workers, _ = _drive(
            table,
            [skeleton_sink(root, schema, kernels, record)],
            batch_rows,
            pool,
            tracer,
            start_row,
            stop_row,
            progress,
        )
        span.set(workers=workers)


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
    offset)``; each sink routes it against its own skeleton (filtering,
    fold-masking, or resample-expanding first as it sees fit) and returns
    the commit that applies it.  The table is read exactly once
    regardless of ``len(sinks)`` — this is the scan sharing that keeps
    k-fold cross-validation and M-member bagged ensembles inside BOAT's
    global two-scan budget.

    Ordering guarantee: commits run on the driving thread in scan order,
    sink by sink within a batch, so each skeleton sees its batches in
    scan order and every per-member spill file and float accumulation is
    identical at any worker count.

    Tracing: one ``cleanup`` span for the whole shared scan with one
    detached child span per sink (named by ``labels``, default
    ``member-<i>``) counting the batches that sink consumed.
    """
    with tracer.span(
        "cleanup", batch_rows=batch_rows, shared_sinks=len(sinks)
    ) as span:
        workers, batches = _drive(table, sinks, batch_rows, pool, tracer)
        span.set(workers=workers)
        for name in labels or [f"member-{i}" for i in range(len(sinks))]:
            tracer.adopt(tracer.worker_span(name, batches=batches), span)
