"""The BOAT driver (§3.5): sampling phase + cleanup scan + finalization.

:func:`boat_build` constructs, from an out-of-core training table, exactly
the tree the reference builder would grow on the full data — in two scans
(one to draw the sample, one cleanup scan) plus localized rebuild work
when a coarse criterion is refuted.

The returned :class:`BoatReport` carries per-phase wall-clock times and
I/O-counter deltas so benchmarks can report both views of cost.  Pass a
:class:`~repro.observability.Tracer` (or set ``BoatConfig.trace``) to
additionally record a structured span tree — ``sample`` → ``bootstrap``
→ ``coarse`` → ``cleanup`` → ``finalize`` — whose counters make the
two-scan claim machine-checkable (see ``docs/OBSERVABILITY.md``).

Failure hygiene: any error escaping the build (including injected I/O
faults mid-scan) releases every held/family store the skeleton created,
so no temporary spill files survive a failed construction, and raw
:class:`OSError` from the storage layer surfaces as a
:class:`~repro.exceptions.StorageError`.

Crash safety: with ``BoatConfig.checkpoint_dir`` set the build persists
its skeleton and cleanup-scan progress as it goes (durable spill files
under the checkpoint directory deliberately *do* survive a failure —
they are the recovery state) and a killed build can be finished by
:func:`repro.recovery.resume_build`, producing a byte-identical tree.
``BoatConfig.scan_retries`` additionally absorbs transient ``IOError``s
mid-scan without failing the build at all.  See ``docs/RECOVERY.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import ReproError, StorageError
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..storage import IOStats, Schema, Table, sample_table
from ..tree import DecisionTree, build_reference_tree
from .bootstrap import SamplingReport, sampling_phase
from .cleanup import cleanup_scan, sql_source
from .finalize import FinalizeReport, finalize_tree, prefetch_frontier_subtrees
from .state import (
    BoatMethod,
    BoatNode,
    reject_float_moments,
    require_boat_method,
)
from .workers import init_build_context


@dataclass
class BoatReport:
    """Diagnostics of one static BOAT construction.

    Attributes:
        mode: "boat" for the full algorithm, "in-memory" when the table
            was no larger than the sample and BOAT switched to the
            reference builder outright.
        table_size: |D|.
        sampling / finalize: phase diagnostics (None in in-memory mode).
        wall_seconds: per-phase wall-clock times.
        io: per-phase I/O deltas (only phases that touched storage).
        workers: resolved worker count of the execution pool.
        parallel_backend: resolved backend ("serial" when workers == 1).
        trace: the phase-span trace, when tracing was enabled.
    """

    mode: str
    table_size: int
    sampling: SamplingReport | None = None
    finalize: FinalizeReport | None = None
    wall_seconds: dict[str, float] = field(default_factory=dict)
    io: dict[str, IOStats] = field(default_factory=dict)
    workers: int = 1
    parallel_backend: str = "serial"
    trace: TraceReport | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


@dataclass
class BoatResult:
    """A finished tree plus its construction report."""

    tree: DecisionTree
    report: BoatReport


def make_build_pool(
    sample: np.ndarray,
    schema: Schema,
    method: BoatMethod,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    tracer: Tracer | NullTracer | None = None,
) -> WorkerPool:
    """The worker pool for one BOAT build, carrying the shared build context.

    Process workers receive (sample, schema, method, split config,
    subsample size) once through the pool initializer; the thread and
    serial backends run the same initializer in the parent.  Use as a
    context manager so workers are reclaimed when the build ends.
    """
    subsample = boat_config.bootstrap_subsample or len(sample)
    return WorkerPool(
        boat_config.n_workers,
        boat_config.parallel_backend,
        initializer=init_build_context,
        initargs=(sample, schema, method, split_config, subsample),
        tracer=tracer,
    )


def _resolve_tracer(
    tracer: Tracer | NullTracer | None, boat_config: BoatConfig, io: IOStats | None
) -> Tracer | NullTracer:
    if tracer is not None:
        return tracer
    if boat_config.trace:
        return Tracer(io)
    return NULL_TRACER


class BuildHarness:
    """What the BOAT drivers share around their own phases, once.

    The flat and sharded builds and resumes and ``forest_build`` run
    their phases between :meth:`start` and :meth:`stop`, which charge
    wall time and I/O to ``report.wall_seconds[name]`` /
    ``report.io[name]``.  The harness also resolves the tracer, runs the
    ``finalize`` phase (:meth:`finalize`), maps a raw :class:`OSError`
    to :class:`~repro.exceptions.StorageError` and releases every held
    skeleton (:meth:`guard`), and attaches the trace (:meth:`done`).
    """

    def __init__(
        self,
        report,
        io: IOStats | None,
        tracer: Tracer | NullTracer | None,
        boat_config: BoatConfig,
        what: str,
    ):
        self.report = report
        self.io = io
        self.tracer = _resolve_tracer(tracer, boat_config, io)
        self._what = what
        self._held: list[BoatNode] = []
        self._t0 = 0.0
        self._io_before: IOStats | None = None

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._io_before = self.io.snapshot() if self.io is not None else None

    def stop(self, name: str) -> None:
        self.report.wall_seconds[name] = time.perf_counter() - self._t0
        if self.io is not None and self._io_before is not None:
            self.report.io[name] = self.io.delta_since(self._io_before)

    def hold(self, root: BoatNode) -> BoatNode:
        """Release ``root``'s held/family stores when :meth:`guard` exits."""
        self._held.append(root)
        return root

    @contextmanager
    def guard(self) -> Iterator[None]:
        try:
            yield
        except ReproError:
            raise
        except OSError as exc:
            # A device/file error mid-build must not surface as a raw
            # OSError with a half-built skeleton behind it.
            raise StorageError(
                f"I/O failure during {self._what}: {exc}"
            ) from exc
        finally:
            # Success or failure, the skeletons' held/family stores (and
            # any spill files they own) are torn down before we return.
            for root in self._held:
                root.release()

    def finalize(
        self,
        call: Callable[[], tuple[DecisionTree, FinalizeReport]],
        pool: WorkerPool | None = None,
    ) -> DecisionTree:
        """Run ``call`` — the driver's :func:`finalize_tree` call over its
        fully counted skeleton — as the timed ``finalize`` phase.

        ``pool`` is recorded as the report's worker pool.
        """
        self.start()
        with self.tracer.span("finalize") as finalize_span:
            tree, finalize_report = call()
            finalize_span.set(
                confirmed_splits=finalize_report.confirmed_splits,
                frontier_completions=finalize_report.frontier_completions,
                rebuilds=finalize_report.rebuilds,
                tree_nodes=tree.n_nodes,
            )
        self.report.finalize = finalize_report
        self.stop("finalize")
        if pool is not None:
            self.report.workers = pool.n_workers
            self.report.parallel_backend = pool.backend
        return tree

    def done(self, checkpoint=None):
        """Consume ``checkpoint`` (only a successful build does) and
        attach the trace; returns the report."""
        if checkpoint is not None:
            checkpoint.finish()
        if self.tracer.enabled:
            self.report.trace = self.tracer.report()
        return self.report


def boat_build(
    table: Table,
    method: BoatMethod,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> BoatResult:
    """Build the exact reference tree for ``table`` with the BOAT algorithm.

    Args:
        table: the training database D (its ``io_stats``, if any, is
            charged for every scan).
        method: an impurity-based split selection method, whose output
            tree is identical to ``build_reference_tree(D, method)``, or
            QUEST, whose tree matches it up to float summation order.
            QUEST cannot be checkpointed or pushed down into SQL.
        split_config: stopping rules (part of the tree's identity).
        boat_config: BOAT knobs (sample size, bootstraps, buckets...) —
            affect speed and rebuild frequency, never the output.
        spill_dir: directory for temporary held/family spill files.
        tracer: phase tracer; defaults to a fresh one over the table's
            I/O stats when ``boat_config.trace`` is set, else disabled.
            Tracing never changes the output tree.
    """
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    require_boat_method(method)
    if boat_config.checkpoint_dir:
        reject_float_moments(method, "a checkpointed build")
    if boat_config.sql_pushdown and sql_source(table) is not None:
        reject_float_moments(method, "the SQL aggregation pushdown")
    # Recovery hooks (imported lazily: repro.recovery imports this module).
    from ..recovery import CheckpointManager, build_digest, wrap_retry

    rng = np.random.default_rng(boat_config.seed)
    io = table.io_stats
    run = BuildHarness(
        BoatReport(mode="boat", table_size=len(table)),
        io,
        tracer,
        boat_config,
        "BOAT construction",
    )
    tracer = run.tracer
    checkpoint = None
    durable_dir = None
    if boat_config.checkpoint_dir:
        checkpoint = CheckpointManager(
            boat_config.checkpoint_dir,
            boat_config.checkpoint_every_batches,
            tracer,
        )
        checkpoint.begin(
            table.schema,
            len(table),
            build_digest(table.schema, len(table), split_config, boat_config),
        )
        durable_dir = checkpoint.spill_dir
    scan_table = wrap_retry(table, boat_config, tracer)

    with run.guard(), tracer.span("boat_build", table_size=len(table)):
        # -- sampling phase --------------------------------------------------
        run.start()
        with tracer.span(
            "sample", requested_rows=boat_config.sample_size
        ) as sample_span:
            sample = sample_table(
                scan_table, boat_config.sample_size, rng, boat_config.batch_rows
            )
            sample_span.set(sample_rows=len(sample))
        if len(sample) >= len(table):
            # D fits in the sample: the paper's in-memory switch applies
            # at the root; run the reference builder directly.
            with tracer.span("in_memory_build"):
                tree = build_reference_tree(
                    sample, table.schema, method, split_config
                )
            run.stop("in_memory_build")
            run.report.mode = "in-memory"
            return BoatResult(tree=tree, report=run.done(checkpoint))
        with make_build_pool(
            sample, table.schema, method, split_config, boat_config, tracer
        ) as pool:
            result = sampling_phase(
                sample,
                table.schema,
                method,
                split_config,
                boat_config,
                len(table),
                rng,
                spill_dir,
                io,
                pool=pool,
                tracer=tracer,
                durable_dir=durable_dir,
            )
            root = run.hold(result.root)
            run.report.sampling = result.report
            run.stop("sampling")
            if checkpoint is not None:
                # The skeleton is immutable from here on; persisting it
                # now makes every later crash resumable.
                checkpoint.save_skeleton(root)

            # -- cleanup scan ------------------------------------------------
            run.start()
            cleanup_scan(
                root,
                scan_table,
                table.schema,
                boat_config.batch_rows,
                pool,
                tracer=tracer,
                progress=(
                    None if checkpoint is None else checkpoint.progress_hook(root)
                ),
                kernels=get_kernels(boat_config.kernel_backend),
                sql_pushdown=boat_config.sql_pushdown,
            )
            run.stop("cleanup_scan")
            if checkpoint is not None:
                # Fully accumulated: a crash during finalization resumes
                # with zero scan rows to re-read.
                checkpoint.checkpoint_cleanup(root, len(table))

            tree = run.finalize(
                lambda: finalize_tree(
                    root,
                    table.schema,
                    method,
                    split_config,
                    prefetch=prefetch_frontier_subtrees(
                        root, table.schema, method, split_config, pool
                    ),
                ),
                pool,
            )
    return BoatResult(tree=tree, report=run.done(checkpoint))
