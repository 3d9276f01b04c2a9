"""The shared-scan forest driver: M bagged BOAT builds, two physical scans.

BOAT's two scans are both *streaming* passes whose per-row work is cheap
relative to reading the row — so M ensemble members can share them.  The
driver generalizes :func:`repro.core.boat_build` member-wise, for either
split selection method:

* **scan 1** draws every member's in-memory sample in one pass: member
  ``m``'s sample positions are chosen inside its *resample* coordinate
  space (``choose_sample_indices`` with the member's own RNG, exactly as
  a standalone build would), mapped back to source rows through the
  cumulative resample weights, and gathered batch by batch;
* each member then runs its own sampling phase (bootstrap trees →
  skeleton intersection) on its own sample with its own RNG — in-memory
  work, no scans;
* **scan 2** is one shared cleanup scan
  (:func:`repro.core.shared_cleanup_scan`): every source batch is
  expanded through each member's weight vector (`expand_batch`, the same
  chunking a standalone :class:`~repro.forest.ResampleTable` scan
  produces) and routed through that member's skeleton.  With a worker
  pool, (batch, member) routing tasks fan out across threads, and the
  driving thread commits them in scan order, which keeps each member's
  stream order identical at any worker count;
* finalization runs per member, exactly as standalone.

The per-member guarantee is the point: every member tree is
**byte-identical** to ``boat_build(ResampleTable(table, plan.weights),
..., BoatConfig(seed=plan.build_seed, ...))`` — same sample draw, same
RNG stream, same cleanup chunk boundaries (which also pins QUEST's
float-summation order), same finalization.  The differential suite
asserts this at M ∈ {1, 4, 8} for both methods and 1/2/4 workers, and
asserts ``IOStats.full_scans == 2`` for the whole forest build.

Out-of-bag accounting rides the same scan 2: rows a member's resample
never drew (weight 0) are appended to a per-member spill store as the
shared scan passes them — no third pass — and scored after finalization
(majority vote over the members for which each row is out-of-bag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.boat import BuildHarness
from ..core.bootstrap import SamplingReport, sampling_phase
from ..core.cleanup import shared_cleanup_scan
from ..core.finalize import FinalizeReport, finalize_tree
from ..core.state import (
    BoatMethod,
    apply_batch_delta,
    require_boat_method,
)
from ..core.terminals import compile_skeleton
from ..exceptions import RecoveryError, SplitSelectionError, StorageError
from ..kernels import get_kernels
from ..observability import NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..recovery.retry import wrap_retry
from ..splits.methods import ImpuritySplitSelection
from ..storage import (
    CLASS_COLUMN,
    IOStats,
    Schema,
    Table,
    TupleStore,
    choose_sample_indices,
)
from ..tree import build_reference_tree
from .bagging import MemberPlan, expand_batch, plan_members
from .model import DecisionForest


@dataclass
class MemberReport:
    """Per-member construction diagnostics."""

    index: int
    build_seed: int
    mode: str = "boat"
    tree_nodes: int = 0
    sampling: SamplingReport | None = None
    finalize: FinalizeReport | None = None
    oob_error: float | None = None
    oob_rows: int = 0


@dataclass
class ForestReport:
    """Diagnostics of one shared-scan forest construction.

    ``oob_error`` is the classic bagging estimate: each source row is
    voted on by exactly the members whose resample missed it, and scored
    against its true label.  ``oob_coverage`` is the fraction of source
    rows with at least one such member (≈ 1 - (1/e)^M).
    """

    table_size: int
    n_members: int
    mode: str = "boat"
    members: list[MemberReport] = field(default_factory=list)
    wall_seconds: dict[str, float] = field(default_factory=dict)
    io: dict[str, IOStats] = field(default_factory=dict)
    workers: int = 1
    oob_error: float | None = None
    oob_coverage: float | None = None
    trace: TraceReport | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


@dataclass
class ForestResult:
    forest: DecisionForest
    report: ForestReport


def _gather_member_samples(
    table: Table,
    plans: list[MemberPlan],
    member_rngs: list[np.random.Generator],
    sample_size: int,
    batch_rows: int,
    schema: Schema,
) -> list[np.ndarray]:
    """Scan 1: every member's sample (or full resample) in one pass.

    Member ``m`` draws sample positions in its resample coordinate space
    with its own RNG — the identical draw a standalone build over
    ``ResampleTable(table, plans[m].weights)`` makes — then positions are
    mapped to source rows through the member's cumulative weights.  When
    the sample covers the resample (the in-memory switch), the member's
    full expanded resample is materialized instead, again matching the
    standalone ``read_all`` path byte for byte.
    """
    n = len(table)
    source_rows: list[np.ndarray | None] = []
    samples: list[np.ndarray | None] = []
    parts: list[list[np.ndarray]] = [[] for _ in plans]
    filled = [0] * len(plans)
    for plan, rng in zip(plans, member_rngs):
        chosen = choose_sample_indices(plan.resample_rows, sample_size, rng)
        if chosen is None:
            source_rows.append(None)  # in-memory: keep the whole resample
            samples.append(None)
        else:
            cumulative = np.cumsum(plan.weights)
            source_rows.append(
                np.searchsorted(cumulative, chosen, side="right")
            )
            samples.append(schema.empty(len(chosen)))
    offset = 0
    for batch in table.scan(batch_rows):
        hi_row = offset + len(batch)
        for m, plan in enumerate(plans):
            src = source_rows[m]
            if src is None:
                expanded = np.repeat(
                    batch, plan.weights[offset:hi_row]
                )
                if len(expanded):
                    parts[m].append(expanded)
                continue
            lo = np.searchsorted(src, offset, side="left")
            hi = np.searchsorted(src, hi_row, side="left")
            if hi > lo:
                samples[m][filled[m] : filled[m] + hi - lo] = batch[
                    src[lo:hi] - offset
                ]
                filled[m] += hi - lo
        offset = hi_row
    out = []
    for m, sample in enumerate(samples):
        if sample is None:
            out.append(
                np.concatenate(parts[m]) if parts[m] else schema.empty(0)
            )
        else:
            out.append(sample)
    return out


def forest_build(
    table: Table,
    n_members: int,
    method: BoatMethod | None = None,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
    oob: bool = False,
) -> ForestResult:
    """Build a bagged forest of ``n_members`` exact BOAT trees in two scans.

    Args:
        table: the training database D; its ``io_stats`` is charged for
            exactly two full scans regardless of ``n_members``.
        n_members: ensemble size M.
        method: :class:`~repro.splits.ImpuritySplitSelection` (default
            gini) or :class:`~repro.splits.QuestSplitSelection`.
        split_config: stopping rules — part of every member's identity.
        boat_config: BOAT knobs.  ``seed`` roots the per-member
            SeedSequence spawn; ``n_workers`` fans members across threads
            during the shared cleanup scan (output is identical at any
            worker count); ``scan_retries`` absorbs transient scan
            errors as in ``boat_build``.  ``checkpoint_dir`` is refused
            with a :class:`~repro.exceptions.RecoveryError`: forests
            cannot be checkpointed or resumed.
        spill_dir: directory for temporary spill files.
        tracer: phase tracer (defaults per ``boat_config.trace``).
        oob: also compute the out-of-bag error estimate from the same
            shared scan (no extra pass).
    """
    if n_members < 1:
        raise SplitSelectionError("forest_build needs n_members >= 1")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    if boat_config.checkpoint_dir:
        raise RecoveryError(
            "forest_build cannot checkpoint or resume: drop "
            "BoatConfig.checkpoint_dir"
        )
    method = method or ImpuritySplitSelection(
        "gini", kernels=boat_config.kernel_backend
    )
    require_boat_method(method)
    schema = table.schema
    n = len(table)
    if n < 1:
        raise SplitSelectionError("cannot build a forest over an empty table")
    io = table.io_stats
    run = BuildHarness(
        ForestReport(table_size=n, n_members=n_members),
        io,
        tracer,
        boat_config,
        "forest construction",
    )
    tracer = run.tracer
    report = run.report
    scan_table = wrap_retry(table, boat_config, tracer)
    kernels = get_kernels(boat_config.kernel_backend)
    plans = plan_members(boat_config.seed, n_members, n)
    member_rngs = [np.random.default_rng(p.build_seed) for p in plans]
    for plan in plans:
        report.members.append(MemberReport(plan.index, plan.build_seed))

    skeletons: list = []
    with run.guard(), tracer.span(
        "forest_build", table_size=n, members=n_members
    ):
        # -- scan 1: shared sample gather ------------------------------------
        run.start()
        with tracer.span(
            "sample",
            requested_rows=boat_config.sample_size,
            members=n_members,
        ) as sample_span:
            samples = _gather_member_samples(
                scan_table,
                plans,
                member_rngs,
                boat_config.sample_size,
                boat_config.batch_rows,
                schema,
            )
            sample_span.set(sample_rows=sum(len(s) for s in samples))
        if boat_config.sample_size >= n:
            # Every resample fits in memory (resamples have exactly n
            # rows): the paper's in-memory switch, applied per member.
            with tracer.span("in_memory_build"):
                members = []
                for m, sample in enumerate(samples):
                    tree = build_reference_tree(
                        sample, schema, method, split_config
                    )
                    members.append(tree)
                    report.members[m].mode = "in-memory"
                    report.members[m].tree_nodes = tree.n_nodes
            run.stop("in_memory_build")
            report.mode = "in-memory"
            forest = DecisionForest(
                schema, members, member_seeds=[p.build_seed for p in plans]
            )
            return ForestResult(forest=forest, report=run.done())

        # -- per-member sampling phases (in-memory, no scans) ----------------
        for m, (plan, sample, rng) in enumerate(
            zip(plans, samples, member_rngs)
        ):
            result = sampling_phase(
                sample,
                schema,
                method,
                split_config,
                boat_config,
                plan.resample_rows,
                rng,
                spill_dir,
                io,
                tracer=tracer,
            )
            skeletons.append(run.hold(result.root))
            report.members[m].sampling = result.report
        run.stop("sampling")

        # -- scan 2: one shared cleanup scan for all members -----------------
        run.start()
        oob_stores = (
            [
                TupleStore(
                    schema, boat_config.spill_threshold_rows, spill_dir, io
                )
                for _ in plans
            ]
            if oob
            else None
        )

        def member_sink(m: int):
            weights = plans[m].weights
            routing = compile_skeleton(skeletons[m], schema)
            store = oob_stores[m] if oob_stores is not None else None

            def sink(batch: np.ndarray, offset: int):
                w = weights[offset : offset + len(batch)]
                # One delta list per expand_batch chunk, applied chunk by
                # chunk: pins QUEST's float summation order.
                chunk_deltas = [
                    routing.deltas(chunk, kernels)
                    for chunk in expand_batch(batch, w, boat_config.batch_rows)
                ]

                def commit() -> None:
                    for deltas in chunk_deltas:
                        apply_batch_delta(deltas)
                    if store is not None:
                        zero = w == 0
                        if zero.any():
                            store.append(batch[zero])

                return commit

            return sink

        with WorkerPool(boat_config.n_workers, "thread", tracer=tracer) as pool:
            report.workers = pool.n_workers
            shared_cleanup_scan(
                scan_table,
                [member_sink(m) for m in range(n_members)],
                boat_config.batch_rows,
                pool=pool,
                tracer=tracer,
                labels=[f"member-{m}" for m in range(n_members)],
            )
        run.stop("cleanup_scan")

        # -- finalize per member ---------------------------------------------
        run.start()
        members = []
        with tracer.span("finalize", members=n_members):
            for m in range(n_members):
                tree, finalize_report = finalize_tree(
                    skeletons[m], schema, method, split_config
                )
                report.members[m].finalize = finalize_report
                report.members[m].tree_nodes = tree.n_nodes
                members.append(tree)
        run.stop("finalize")
        forest = DecisionForest(
            schema, members, member_seeds=[p.build_seed for p in plans]
        )

        # -- out-of-bag scoring (no additional scans) ------------------------
        if oob_stores is not None:
            run.start()
            with tracer.span("oob", members=n_members) as oob_span:
                _score_oob(forest, plans, oob_stores, report, schema)
                oob_span.set(
                    oob_error=report.oob_error,
                    oob_coverage=report.oob_coverage,
                )
            run.stop("oob")
    return ForestResult(forest=forest, report=run.done())


def _score_oob(
    forest: DecisionForest,
    plans: list[MemberPlan],
    stores: list[TupleStore],
    report: ForestReport,
    schema: Schema,
) -> None:
    """Vote each source row's out-of-bag members; score against true labels.

    The per-member rows were captured during the shared cleanup scan (in
    scan order, which matches the sorted weight-0 indices), so no table
    scan happens here.
    """
    n = report.table_size
    k = schema.n_classes
    votes = np.zeros((n, k), dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for m, (plan, store) in enumerate(zip(plans, stores)):
        rows = store.read_all()
        store.clear()
        idx = plan.oob_rows
        report.members[m].oob_rows = len(idx)
        if len(rows) != len(idx):  # pragma: no cover - internal invariant
            raise StorageError(
                f"member {m} OOB store holds {len(rows)} rows, "
                f"expected {len(idx)}"
            )
        if len(rows) == 0:
            report.members[m].oob_error = None
            continue
        predicted = forest.members[m].predict(rows)
        true = rows[CLASS_COLUMN].astype(np.int64)
        report.members[m].oob_error = float(np.mean(predicted != true))
        votes[idx, predicted] += 1  # idx is unique within a member
        labels[idx] = true
        seen[idx] = True
    covered = int(seen.sum())
    report.oob_coverage = covered / n if n else 0.0
    if covered == 0:
        report.oob_error = None
        return
    aggregated = votes[seen].argmax(axis=1)
    report.oob_error = float(np.mean(aggregated != labels[seen]))
