"""Resume a killed checkpointed build and finish the identical tree.

:func:`resume_build` is the counterpart of
:func:`repro.core.boat_build` for a process that died mid-build with
``BoatConfig.checkpoint_dir`` set.  It restores the persisted skeleton
and (if the crash happened during the cleanup scan) the checkpointed
per-node statistics and durable spill files, re-runs the cleanup scan
from the checkpointed offset, and finalizes.  Because the skeleton is
immutable once saved and store row order equals table scan order, the
resumed build's tree is *byte-identical* to what the uninterrupted build
would have produced — at any worker count and even with a different
batch size than the crashed process used.

What resume re-reads: only the rows between the last checkpoint and the
end of the table.  The sample scan is never repeated — the skeleton it
produced is already on disk — so total distinct-tuple I/O across the
crashed and resumed processes stays at the two-scan bound, plus the
re-read tail bounded by ``checkpoint_every_batches * batch_rows`` rows
of the crashed process.

Guard rails: the checkpoint's configuration digest must match the
resuming process's (schema, table size, :class:`SplitConfig`, and every
skeleton-shaping BOAT knob) — resuming under a configuration that would
define a different tree raises :class:`~repro.exceptions.RecoveryError`
instead of quietly producing a hybrid.

Limitations: a crash *before* the skeleton checkpoint (during the
sampling phase) leaves nothing worth resuming — the sampling phase reads
one scan and keeps all state in memory — so resume refuses and the build
should simply be restarted.  Frontier prefetch is skipped on resume (the
in-memory sample died with the predecessor); prefetch is a speed
optimization that never changes the tree.
"""

from __future__ import annotations

import time

from ..config import BoatConfig, SplitConfig
from ..core.boat import BoatReport, BoatResult
from ..core.cleanup import cleanup_scan
from ..core.finalize import finalize_tree
from ..core.state import reject_float_moments
from ..exceptions import RecoveryError, ReproError, StorageError
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..parallel import WorkerPool
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, Schema, Table
from .checkpoint import (
    PHASE_COMPLETE,
    CheckpointManager,
    build_digest,
    load_checkpoint,
    restore_cleanup_state,
    restore_skeleton,
)
from .retry import RetryingTable, RetryPolicy


def wrap_retry(
    table: Table, boat_config: BoatConfig, tracer: Tracer | NullTracer
) -> Table:
    """Apply ``BoatConfig`` retry knobs to a table (identity when off)."""
    if boat_config.scan_retries <= 0:
        return table
    return RetryingTable(
        table,
        RetryPolicy(
            max_retries=boat_config.scan_retries,
            base_delay_s=boat_config.scan_retry_base_delay_s,
            max_delay_s=boat_config.scan_retry_max_delay_s,
        ),
        tracer=tracer,
    )


def resume_build(
    table: Table,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> BoatResult:
    """Finish a checkpointed build that a previous process started.

    Args:
        table: the same training database the crashed build was scanning.
        method: the same split selection method.
        split_config / boat_config: the same configuration the crashed
            build used (``boat_config.checkpoint_dir`` names the
            checkpoint); tree-defining mismatches are refused via the
            config digest.  Speed-only knobs (workers, batch size,
            retries) may differ freely.
        tracer: phase tracer, resolved exactly as in ``boat_build``.

    Returns:
        A :class:`~repro.core.BoatResult` whose tree is byte-identical to
        the uninterrupted build's.  ``report.sampling`` is ``None`` — the
        sampling diagnostics died with the original process.
    """
    reject_float_moments(method, "resume_build")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    if not boat_config.checkpoint_dir:
        raise RecoveryError(
            "resume_build requires BoatConfig.checkpoint_dir to name the "
            "checkpoint directory to resume from"
        )
    io = table.io_stats
    if tracer is None:
        tracer = Tracer(io) if boat_config.trace else NULL_TRACER

    state = load_checkpoint(boat_config.checkpoint_dir)
    if state.sharded is not None:
        # A sharded coordinator wrote this checkpoint: hand off to the
        # elastic resume (unit-level restore, replica failover).  The
        # returned ShardedBoatResult shares the .tree/.report surface.
        from ..shard.elastic import resume_sharded_build

        return resume_sharded_build(
            table, method, split_config, boat_config, tracer=tracer
        )
    if state.phase == PHASE_COMPLETE:
        raise RecoveryError(
            f"checkpoint {boat_config.checkpoint_dir} records a completed "
            "build; nothing to resume"
        )
    if state.skeleton is None:
        raise RecoveryError(
            "the build died before its skeleton was checkpointed (sampling "
            "phase); restart it from scratch — there is no state to save"
        )
    schema: Schema = table.schema
    digest = build_digest(schema, len(table), split_config, boat_config)
    recorded = state.meta.get("config_digest")
    if digest != recorded:
        raise RecoveryError(
            "configuration digest mismatch: the checkpoint was written under "
            "a different schema/table/configuration than this resume "
            f"(checkpoint {recorded}, resume {digest}); resuming would not "
            "reproduce the original tree"
        )

    manager = CheckpointManager(
        boat_config.checkpoint_dir, boat_config.checkpoint_every_batches, tracer
    )
    report = BoatReport(mode="boat", table_size=len(table))

    def phase(name: str, start: float, io_before: IOStats | None) -> None:
        report.wall_seconds[name] = time.perf_counter() - start
        if io is not None and io_before is not None:
            report.io[name] = io.delta_since(io_before)

    root = None
    try:
        with tracer.span(
            "boat_resume", table_size=len(table), checkpoint=manager.directory
        ) as resume_span:
            # -- restore ------------------------------------------------------
            t0 = time.perf_counter()
            io_before = io.snapshot() if io is not None else None
            root = restore_skeleton(
                state.skeleton, schema, boat_config, io, manager.spill_dir
            )
            start_row = 0
            if state.cleanup is not None:
                start_row = restore_cleanup_state(
                    root, state.cleanup, schema, boat_config, io, manager.spill_dir
                )
            resume_span.set(start_row=start_row)
            phase("restore", t0, io_before)

            # -- cleanup scan tail -------------------------------------------
            t0 = time.perf_counter()
            io_before = io.snapshot() if io is not None else None
            scan_table = wrap_retry(table, boat_config, tracer)
            with WorkerPool(
                boat_config.n_workers, "thread", tracer=tracer
            ) as pool:
                cleanup_scan(
                    root,
                    scan_table,
                    schema,
                    boat_config.batch_rows,
                    pool,
                    tracer=tracer,
                    start_row=start_row,
                    progress=manager.progress_hook(root),
                    kernels=get_kernels(boat_config.kernel_backend),
                )
                phase("cleanup_scan", t0, io_before)
                # The scan is fully accumulated: checkpoint it so a crash
                # during finalization resumes with zero rows to re-read.
                manager.checkpoint_cleanup(root, len(table))

                # -- finalization --------------------------------------------
                t0 = time.perf_counter()
                io_before = io.snapshot() if io is not None else None
                with tracer.span("finalize") as finalize_span:
                    tree, finalize_report = finalize_tree(
                        root, schema, method, split_config
                    )
                    finalize_span.set(
                        confirmed_splits=finalize_report.confirmed_splits,
                        frontier_completions=finalize_report.frontier_completions,
                        rebuilds=finalize_report.rebuilds,
                        tree_nodes=tree.n_nodes,
                    )
                report.finalize = finalize_report
                phase("finalize", t0, io_before)
                report.workers = pool.n_workers
                report.parallel_backend = pool.backend
    except ReproError:
        raise
    except OSError as exc:
        raise StorageError(f"I/O failure during BOAT resume: {exc}") from exc
    finally:
        # Free memory either way; durable spill files stay on disk until
        # finish() sweeps them, so a failed resume remains resumable.
        if root is not None:
            root.release()
    manager.finish()
    if tracer.enabled:
        report.trace = tracer.report()
    return BoatResult(tree=tree, report=report)
