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
its skeleton, then every ``checkpoint_every_batches`` cleanup batches
the statistics of the rows just scanned as one checkpoint unit, and a
killed build can be finished by :func:`resume_build` — the same driver
with the skeleton read from the checkpoint — producing a byte-identical
tree.
``BoatConfig.scan_retries`` additionally absorbs transient ``IOError``s
mid-scan without failing the build at all.  See ``docs/RECOVERY.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import ReproError, StorageError
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..storage import IOStats, Table, sample_table
from ..tree import DecisionTree, build_reference_tree
from .bootstrap import SamplingReport, sampling_phase
from .cleanup import cleanup_scan, sql_source
from .finalize import FinalizeReport, finalize_tree
from .state import (
    BoatMethod,
    BoatNode,
    reject_float_moments,
    require_boat_method,
)

if TYPE_CHECKING:
    from ..recovery.checkpoint import CheckpointManager, CheckpointState


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
        restored_units: checkpointed cleanup units a resume merged.
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
    restored_units: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


@dataclass
class BoatResult:
    """A finished tree plus its construction report."""

    tree: DecisionTree
    report: BoatReport


def resolve_tracer(
    tracer: Tracer | NullTracer | None, boat_config: BoatConfig, io: IOStats | None
) -> Tracer | NullTracer:
    """``tracer``, else a fresh one when ``boat_config.trace`` is set."""
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
    ``boat_cross_validate`` and ``IncrementalBoat.build`` use the guard
    only.
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
        self.tracer = resolve_tracer(tracer, boat_config, io)
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
    def guard(self, keep: bool = False) -> Iterator[None]:
        """``keep`` keeps the held skeletons when the block succeeds
        (a maintained build goes on using its skeleton)."""
        failed = True
        try:
            yield
            failed = False
        except ReproError:
            raise
        except OSError as exc:
            # A device/file error mid-build must not surface as a raw
            # OSError with a half-built skeleton behind it.
            raise StorageError(
                f"I/O failure during {self._what}: {exc}"
            ) from exc
        finally:
            # The skeletons' held/family stores (and any spill files they
            # own) are torn down before we return.
            if failed or not keep:
                for root in self._held:
                    root.release()

    def finalize(
        self,
        call: Callable[[bool], tuple[DecisionTree, FinalizeReport]],
        pool: WorkerPool | None = None,
    ) -> DecisionTree:
        """Run ``call(timed)`` — the driver's :func:`finalize_tree` call
        over its fully counted skeleton — as the timed ``finalize`` phase.

        ``timed`` is true under a tracer; the span then also carries the
        finalize layer timings (:data:`~repro.core.finalize.LAYERS`).
        ``pool`` is recorded as the report's worker pool.
        """
        self.start()
        with self.tracer.span("finalize") as finalize_span:
            tree, finalize_report = call(self.tracer.enabled)
            finalize_span.set(
                confirmed_splits=finalize_report.confirmed_splits,
                frontier_completions=finalize_report.frontier_completions,
                rebuilds=finalize_report.rebuilds,
                tree_nodes=tree.n_nodes,
                **finalize_report.layer_seconds,
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
    tracer = resolve_tracer(tracer, boat_config, table.io_stats)
    source = TableSource(table, boat_config, tracer)
    return BoatResult(
        *drive(source, method, split_config, boat_config, spill_dir, tracer)
    )


def resume_build(
    table: Table,
    method: BoatMethod,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> BoatResult:
    """Finish a checkpointed build that a previous process started.

    The same driver as :func:`boat_build`, with the skeleton read from
    the checkpoint instead of sampled: the checkpointed units merge in
    row order and only the rows no unit covers are scanned, so the tree
    is *byte-identical* to the uninterrupted build's and the sample scan
    is never repeated.  ``split_config``/``boat_config`` must define the
    same tree as the crashed build's (``boat_config.checkpoint_dir``
    names the checkpoint; :func:`repro.recovery.load_resumable` refuses
    a mismatch); speed-only knobs (workers, batch size, retries) may
    differ.  A sharded checkpoint is handed to
    :func:`repro.shard.resume_sharded_build`.  ``report.sampling`` is
    ``None`` — the sampling diagnostics died with the original process.
    """
    reject_float_moments(method, "resume_build")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    from ..recovery import load_resumable

    resume = load_resumable(table, split_config, boat_config, "resume_build")
    if resume.sharded is not None:
        from ..shard import resume_sharded_build

        return resume_sharded_build(
            table, method, split_config, boat_config, tracer=tracer
        )
    tracer = resolve_tracer(tracer, boat_config, table.io_stats)
    source = TableSource(table, boat_config, tracer)
    return BoatResult(
        *drive(source, method, split_config, boat_config, None, tracer, resume)
    )


class TableSource:
    """A flat table as :func:`drive` reads it: one reader draws the
    sample (:func:`sample_table`) and counts the rows
    (:func:`cleanup_scan`), through the configured scan retries."""

    kind = mode = "boat"
    manifest = None
    span_attrs: dict = {}

    def __init__(
        self, table: Table, boat_config: BoatConfig, tracer: Tracer | NullTracer
    ):
        from ..recovery import wrap_retry

        self.table = wrap_retry(table, boat_config, tracer)
        self.boat_config = boat_config
        self.tracer = tracer

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        config = self.boat_config
        return sample_table(self.table, config.sample_size, rng, config.batch_rows)

    def count(
        self,
        root: BoatNode,
        pool: WorkerPool,
        checkpoint: CheckpointManager | None,
        resume: CheckpointState | None,
    ) -> None:
        """Count every row into ``root``, in global row order.

        Each restored unit merges as it comes, one at a time; each
        uncovered interval ``[lo, hi)`` is one :func:`cleanup_scan` —
        the whole table, once, for a fresh build.  Held and family rows
        thus concatenate in global row order.  With a ``checkpoint``, an
        interval's batches are recorded as units, its last unit closed
        when it ends: no unit spans another, and a crash during
        finalization re-reads no rows.
        """
        from ..recovery.checkpoint import merge_shard_stats

        n = len(self.table)
        loads = {} if resume is None else {lo: f for lo, _, f in resume.restored}
        gaps = dict([(0, n)] if resume is None else resume.uncovered)
        config = self.boat_config
        for lo in sorted([*loads, *gaps]):
            if lo in loads:
                merge_shard_stats(root, [loads[lo]()])
                continue
            cleanup_scan(
                root,
                self.table,
                self.table.schema,
                config.batch_rows,
                pool,
                tracer=self.tracer,
                start_row=lo,
                kernels=get_kernels(config.kernel_backend),
                stop_row=None if gaps[lo] == n else gaps[lo],
                sql_pushdown=config.sql_pushdown,
                record=None if checkpoint is None else checkpoint.record_batch,
            )
            if checkpoint is not None:
                checkpoint.close_unit()


def drive(
    source,
    method: BoatMethod,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    spill_dir: str | None,
    tracer: Tracer | NullTracer,
    resume: CheckpointState | None = None,
) -> tuple[DecisionTree, BoatReport]:
    """The one BOAT driver: a skeleton, its uncovered rows counted, finalize.

    The skeleton comes from the sampling phase, or from the checkpoint
    ``resume`` loaded.  ``source`` reads the data: a :class:`TableSource`
    or a sharded coordinator's session (``repro.shard.coordinator``),
    which draw the sample (``sample(rng)``) and count the rows no
    restored unit covers (``count(root, pool, checkpoint, resume)``).
    ``tracer`` is resolved (:func:`resolve_tracer`).
    """
    # Recovery hooks (imported lazily: repro.recovery imports this module).
    from ..recovery import CheckpointManager, build_digest, restore_skeleton

    table = source.table
    schema, n, io = table.schema, len(table), table.io_stats
    name = f"{source.kind}_{'build' if resume is None else 'resume'}"
    run = BuildHarness(
        BoatReport(mode=source.mode, table_size=n), io, tracer, boat_config, name
    )
    attrs = dict(source.span_attrs)
    checkpoint = None
    if boat_config.checkpoint_dir:
        checkpoint = CheckpointManager(
            boat_config.checkpoint_dir,
            boat_config.checkpoint_every_batches,
            tracer,
        )
        if resume is None:
            digest = build_digest(schema, n, split_config, boat_config)
            checkpoint.begin(schema, n, digest, sharded=source.manifest)
        else:
            checkpoint.restore_units([(lo, hi) for lo, hi, _ in resume.restored])
            attrs["checkpoint"] = checkpoint.directory

    # Failure or not, the guard frees the skeleton; checkpointed units
    # stay on disk until finish() sweeps them, so a failed build stays
    # resumable.
    with run.guard(), tracer.span(name, table_size=n, **attrs) as build_span:
        run.start()
        if resume is None:
            # -- sampling phase ----------------------------------------------
            rng = np.random.default_rng(boat_config.seed)
            with tracer.span(
                "sample", requested_rows=boat_config.sample_size
            ) as sample_span:
                sample = source.sample(rng)
                sample_span.set(sample_rows=len(sample))
            if len(sample) >= n:
                # D fits in the sample: the paper's in-memory switch applies
                # at the root; run the reference builder directly.
                with tracer.span("in_memory_build"):
                    tree = build_reference_tree(sample, schema, method, split_config)
                run.stop("in_memory_build")
                run.report.mode = "in-memory"
                return tree, run.done(checkpoint)
        else:
            # -- restore -----------------------------------------------------
            root = run.hold(
                restore_skeleton(resume.skeleton, schema, boat_config, io, spill_dir)
            )
            run.report.restored_units = len(resume.restored)
            build_span.set(restored_units=len(resume.restored))
            run.stop("restore")
        with WorkerPool(
            boat_config.n_workers, boat_config.parallel_backend, tracer=tracer
        ) as pool:
            if resume is None:
                result = sampling_phase(
                    sample,
                    schema,
                    method,
                    split_config,
                    boat_config,
                    n,
                    rng,
                    spill_dir,
                    io,
                    pool=pool,
                    tracer=tracer,
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
            source.count(root, pool, checkpoint, resume)
            run.stop("cleanup_scan")

            tree = run.finalize(
                lambda timed: finalize_tree(
                    root, schema, method, split_config, timed=timed
                ),
                pool,
            )
    # Only a fully-successful build consumes its checkpoint; a build that
    # failed (even after retries) stays resumable.
    return tree, run.done(checkpoint)
