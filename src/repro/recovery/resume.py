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

Guard rails (:func:`~repro.recovery.checkpoint.load_resumable`, shared
with the sharded resume): the checkpoint's kind must fit the table, and
its configuration digest must match the resuming process's (schema,
table size, :class:`SplitConfig`, and every skeleton-shaping BOAT knob),
else :class:`~repro.exceptions.RecoveryError` — never a hybrid tree.  A
crash *before* the skeleton checkpoint (during the sampling phase)
leaves nothing worth resuming, so resume refuses and the build should
simply be restarted.  Frontier prefetch is skipped on resume (the
in-memory sample died with the predecessor); prefetch is a speed
optimization that never changes the tree.
"""

from __future__ import annotations

from ..config import BoatConfig, SplitConfig
from ..core.boat import BoatReport, BoatResult, BuildHarness
from ..core.cleanup import cleanup_scan
from ..core.finalize import finalize_tree
from ..core.state import reject_float_moments
from ..kernels import get_kernels
from ..observability import NullTracer, Tracer
from ..parallel import WorkerPool
from ..splits.methods import ImpuritySplitSelection
from ..storage import Table
from .checkpoint import (
    CheckpointManager,
    load_resumable,
    restore_cleanup_state,
    restore_skeleton,
)
from .retry import wrap_retry


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
    state = load_resumable(table, split_config, boat_config, "resume_build")
    if state.sharded is not None:
        # A sharded coordinator wrote this checkpoint: hand off to the
        # elastic resume (unit-level restore, replica failover).  The
        # returned ShardedBoatResult shares the .tree/.report surface.
        from ..shard import resume_sharded_build

        return resume_sharded_build(
            table, method, split_config, boat_config, tracer=tracer
        )
    schema = table.schema
    io = table.io_stats
    run = BuildHarness(
        BoatReport(mode="boat", table_size=len(table)),
        io,
        tracer,
        boat_config,
        "BOAT resume",
    )
    tracer = run.tracer
    manager = CheckpointManager(
        boat_config.checkpoint_dir, boat_config.checkpoint_every_batches, tracer
    )
    # Failure or not, the guard frees memory; durable spill files stay on
    # disk until finish() sweeps them, so a failed resume stays resumable.
    with run.guard(), tracer.span(
        "boat_resume", table_size=len(table), checkpoint=manager.directory
    ) as resume_span:
        # -- restore ----------------------------------------------------------
        run.start()
        root = run.hold(
            restore_skeleton(
                state.skeleton, schema, boat_config, io, manager.spill_dir
            )
        )
        start_row = 0
        if state.cleanup is not None:
            start_row = restore_cleanup_state(
                root, state.cleanup, schema, boat_config, io, manager.spill_dir
            )
        resume_span.set(start_row=start_row)
        run.stop("restore")

        # -- cleanup scan tail -----------------------------------------------
        run.start()
        scan_table = wrap_retry(table, boat_config, tracer)
        with WorkerPool(boat_config.n_workers, "thread", tracer=tracer) as pool:
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
            run.stop("cleanup_scan")
            # The scan is fully accumulated: checkpoint it so a crash
            # during finalization resumes with zero rows to re-read.
            manager.checkpoint_cleanup(root, len(table))
            # No frontier prefetch: the sample died with the predecessor.
            tree = run.finalize(
                lambda: finalize_tree(root, schema, method, split_config), pool
            )
    return BoatResult(tree=tree, report=run.done(manager))
