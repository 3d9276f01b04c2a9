"""The sharded BOAT build coordinator.

:func:`sharded_boat_build` reproduces :func:`repro.core.boat.boat_build`
over a :class:`~repro.storage.ShardedTable`, phase by phase, with the two
table scans distributed to the shards:

1. **sample** — the coordinator makes the *identical* global index draw
   the single-table build would make
   (:func:`repro.storage.choose_sample_indices` consumes the shared RNG
   exactly once) and ships each shard its index sub-range; per-shard
   gathers concatenated in shard order reproduce the single-table sample
   byte for byte under range placement.
2. **bootstrap / coarse** — unchanged: the sampling phase runs centrally
   on the in-memory sample with the same RNG stream, producing the same
   skeleton.
3. **cleanup** — the frozen skeleton is serialized (reusing the recovery
   layer's checkpoint format) to every shard, each shard scans locally
   (at the build's worker count), and the returned mergeable statistics
   are folded into the master skeleton in shard order under a ``merge``
   span; per-shard ``shard_scan`` spans carry each shard's private I/O.
4. **finalize** — unchanged: the existing exact finalization runs on the
   merged skeleton, so the output tree is **byte-identical** to the
   single-table build (``docs/SHARDING.md`` gives the full argument).

Kernel backend: ``BoatConfig.kernel_backend`` travels inside the shipped
``boat_config`` of every cleanup request, so each shard's local scan runs
on the same :mod:`repro.kernels` backend as a flat build would, while the
central sampling/finalization phases use the backend carried by
``method`` — both backends are bit-identical, so the distributed
guarantee is unaffected by the switch.

:func:`resume_sharded_build` restores a dead coordinator's skeleton and
completed units, then runs the *same* cleanup-and-merge phase over the
uncovered rows: a fresh build is a resume with nothing restored.

Failure hygiene matches the single-table driver: shard verdicts are ORed
into a single clean :class:`~repro.exceptions.ShardError`, the master
skeleton's stores are released on every exit path, and the coordinator's
scratch directory (where in-process/local shard workers spill) is swept
even when a shard server was killed mid-scan — no spill litter survives
a failed build.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.boat import BoatReport, BuildHarness
from ..core.bootstrap import sampling_phase
from ..core.finalize import finalize_tree
from ..core.state import BoatNode, reject_float_moments
from ..exceptions import RecoveryError, ShardError
from ..observability import NullTracer, Tracer
from ..parallel import WorkerPool
from ..recovery.checkpoint import (
    CheckpointManager,
    ShardScanResult,
    build_digest,
    load_resumable,
    load_unit_results,
    merge_shard_stats,
    restore_skeleton,
    serialize_skeleton,
)
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, ShardedTable, choose_sample_indices
from ..tree import DecisionTree, build_reference_tree
from .elastic import (
    ElasticDispatcher,
    ElasticPolicy,
    WorkUnit,
    uncovered_intervals,
    units_for_intervals,
    whole_shard_units,
)
from .stats import ShardVerdict
from .transport import ShardTransport, make_transport
from .worker import cleanup_request, sample_request


@dataclass
class ShardReport:
    """Shard-level diagnostics of one distributed build."""

    n_shards: int
    transport: str
    placement: str
    shard_rows: tuple[int, ...]
    #: Per-shard I/O accumulated by this build's requests (sample gather +
    #: cleanup scan) — the per-shard two-scan invariant lives here.
    shard_io: list[IOStats] = field(default_factory=list)
    #: Merged in-interval split-candidate count per numeric-criterion
    #: node (``node_id`` → distinct values across shards).
    candidate_counts: dict[int, int] = field(default_factory=dict)
    verdicts: list[ShardVerdict] = field(default_factory=list)
    #: Elastic-dispatch diagnostics: failure-triggered relaunches,
    #: straggler backups, and late duplicate results discarded under
    #: first-result-wins (see ``repro.shard.elastic``).
    failovers: int = 0
    speculative_launches: int = 0
    duplicates_discarded: int = 0
    #: Resume diagnostics: completed units restored from the checkpoint.
    restored_units: int = 0
    resumed: bool = False


@dataclass
class ShardedBoatResult:
    """A finished tree plus construction and shard diagnostics."""

    tree: DecisionTree
    report: BoatReport
    shard_report: ShardReport


class _ShardSession:
    """One sharded driver's shard-side context, torn down on exit.

    Owns the :class:`ShardReport`, the shard offsets, the elastic policy,
    the transport (closed on exit when built here from a name) and the
    coordinator's scratch directory (swept on exit).  :meth:`charge`
    folds per-shard worker I/O back into the experiment's counters three
    ways: into the experiment's shared instance (``full_scans`` zeroed —
    the sharded table records one *logical* full scan per phase, see
    :meth:`finish_phase`), into the :class:`ShardedTable`'s per-shard
    private counters, and into the report's per-shard totals.
    """

    def __init__(
        self,
        table: ShardedTable,
        transport: ShardTransport | str,
        spill_dir: str | None,
        elastic: ElasticPolicy | None,
        tracer: Tracer | NullTracer,
    ):
        manifest = table.manifest
        self.table = table
        self.tracer = tracer
        self.policy = elastic if elastic is not None else ElasticPolicy()
        self.report = ShardReport(
            n_shards=manifest.n_shards,
            transport=transport if isinstance(transport, str) else transport.name,
            placement=manifest.placement,
            shard_rows=manifest.shard_rows,
            shard_io=[IOStats() for _ in range(manifest.n_shards)],
        )
        self.offsets = [0, *accumulate(manifest.shard_rows)]
        self._own_transport = isinstance(transport, str)
        if self._own_transport:
            transport = make_transport(transport, table.shard_paths)
        self.transport = transport
        self.scratch = tempfile.mkdtemp(prefix="boat-shard-", dir=spill_dir)

    def __enter__(self) -> "_ShardSession":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._own_transport:
            self.transport.close()
        # The scratch directory also holds whatever a killed local shard
        # worker spilled before dying: sweeping it here is what makes the
        # kill-one-shard drill leave zero spill files behind.
        shutil.rmtree(self.scratch, ignore_errors=True)

    def dispatch(
        self, units: list[WorkUnit], requests: list[dict], on_result=None
    ) -> list[dict]:
        """Run one phase's units through the elastic dispatcher.

        Verdicts and elastic counters land on the report even when
        dispatch fails — a unit whose placements were all exhausted
        leaves its ``ok=False`` verdict behind for the caller's
        diagnostics.
        """
        dispatcher = ElasticDispatcher(
            units,
            self.transport,
            self.table.shard_paths,
            self.table.replica_paths,
            self.policy,
            self.tracer,
        )
        report = self.report
        try:
            return dispatcher.run(requests, on_result=on_result)
        finally:
            report.verdicts.extend(dispatcher.verdicts)
            report.failovers += dispatcher.failovers
            report.speculative_launches += dispatcher.speculative_launches
            report.duplicates_discarded += dispatcher.duplicates_discarded

    def charge(self, shard_id: int, rows: int, worker_io: IOStats) -> None:
        """Charge one shard response's I/O, under a ``shard_scan`` span."""
        delta = worker_io.snapshot()
        self.table.shard_io_stats[shard_id].merge(delta)
        self.report.shard_io[shard_id].merge(delta)
        experiment = self.table.io_stats
        if experiment is not None:
            delta.full_scans = 0
            experiment.merge(delta)
        if self.tracer.enabled:
            span = self.tracer.worker_span("shard_scan", shard=shard_id, rows=rows)
            span.add_io(worker_io)
            self.tracer.adopt(span)

    def finish_phase(self) -> None:
        if self.table.io_stats is not None:
            self.table.io_stats.record_full_scan()


def sharded_boat_build(
    table: ShardedTable,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
    transport: ShardTransport | str = "inprocess",
    shard_simulated_mbps: float | None = None,
    elastic: ElasticPolicy | None = None,
) -> ShardedBoatResult:
    """Build the exact single-table BOAT tree from a sharded database.

    Args:
        table: the sharded training database.  Under ``range`` placement
            the output tree is byte-identical to
            ``boat_build(unsharded_table, ...)`` with the same
            configuration; under ``hash`` placement it is byte-identical
            to the single-table build over the table in sharded scan
            order.
        transport: a :class:`~repro.shard.transport.ShardTransport`, or
            one of ``"inprocess"`` / ``"process"`` to construct (and
            close) a local one.  TCP requires a constructed
            :class:`~repro.shard.rpc.TcpTransport` (the coordinator does
            not know where the servers live).
        shard_simulated_mbps: per-shard simulated device throughput for
            the cleanup scan (benchmarks and failure drills).
        elastic: the :class:`~repro.shard.elastic.ElasticPolicy` for
            failover/speculation (default: failover on — a shard that
            dies mid-scan is retried on its replicas and then re-read
            from the source partition; the build only fails when every
            placement of a unit is exhausted).
        Everything else matches :func:`repro.core.boat.boat_build`.

    When ``boat_config.checkpoint_dir`` is set, the build is crash-safe:
    the skeleton and every completed per-shard cleanup unit are persisted
    as they land, and a SIGKILL'd coordinator finishes byte-identically
    via :func:`resume_sharded_build` (or plain
    :func:`repro.recovery.resume_build`, which delegates).
    """
    reject_float_moments(method, "sharded_boat_build")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    rng = np.random.default_rng(boat_config.seed)
    schema = table.schema
    manifest = table.manifest
    n = len(table)
    run = BuildHarness(
        BoatReport(mode="boat-sharded", table_size=n),
        table.io_stats,
        tracer,
        boat_config,
        "sharded build",
    )
    tracer = run.tracer
    manager: CheckpointManager | None = None
    with _ShardSession(
        table, transport, spill_dir, elastic, tracer
    ) as session, run.guard(), tracer.span(
        "sharded_build", table_size=n, shards=manifest.n_shards
    ):
        # -- sampling phase: distributed draw, central bootstrap -----------
        run.start()
        with tracer.span(
            "sample", requested_rows=boat_config.sample_size
        ) as sample_span:
            sample = _distributed_sample(session, boat_config, rng)
            sample_span.set(sample_rows=len(sample))
        if len(sample) >= n:
            with tracer.span("in_memory_build"):
                tree = build_reference_tree(sample, schema, method, split_config)
            run.stop("in_memory_build")
            run.report.mode = "in-memory"
            return ShardedBoatResult(tree, run.done(), session.report)
        if boat_config.checkpoint_dir:
            manager = CheckpointManager(
                boat_config.checkpoint_dir,
                boat_config.checkpoint_every_batches,
                tracer,
            )
            manager.begin_sharded(
                schema,
                n,
                build_digest(schema, n, split_config, boat_config),
                manifest.placement,
                manifest.schema_digest,
            )
        with WorkerPool(
            boat_config.n_workers, boat_config.parallel_backend, tracer=tracer
        ) as pool:
            result = sampling_phase(
                sample,
                schema,
                method,
                split_config,
                boat_config,
                n,
                rng,
                spill_dir,
                table.io_stats,
                pool=pool,
                tracer=tracer,
            )
            root = run.hold(result.root)
            run.report.sampling = result.report
            run.stop("sampling")
            if manager is not None:
                manager.save_skeleton(root)

            # -- distributed cleanup scan + merge ----------------------------
            run.start()
            _sharded_cleanup(
                session,
                root,
                serialize_skeleton(root),
                whole_shard_units(session.offsets),
                [],
                boat_config,
                manager,
                shard_simulated_mbps,
            )
            run.stop("cleanup_scan")

            # -- finalization (unchanged, exact) -----------------------------
            tree = run.finalize(
                lambda timed: finalize_tree(
                    root, schema, method, split_config, timed=timed
                ),
                pool,
            )
    # Only a fully-successful build consumes its checkpoint; a build that
    # failed (even after retries) stays resumable.
    return ShardedBoatResult(tree, run.done(manager), session.report)


def resume_sharded_build(
    table: ShardedTable,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
    transport: ShardTransport | str = "inprocess",
    shard_simulated_mbps: float | None = None,
    elastic: ElasticPolicy | None = None,
) -> ShardedBoatResult:
    """Finish a checkpointed *sharded* build that a dead coordinator started.

    The counterpart of :func:`repro.recovery.resume_build` for
    :func:`sharded_boat_build` with ``BoatConfig.checkpoint_dir`` set.
    Completed cleanup units are loaded from the checkpoint; only the
    uncovered complement of the table — cut at the *current* shard
    boundaries — is dispatched, through the same cleanup-and-merge phase
    as the fresh build, so:

    * no already-counted row is scanned again (units are only
      checkpointed once fully scanned);
    * the shard layout may have changed since the checkpoint via
      :func:`repro.storage.reshard` — a checkpoint taken at K shards
      resumes at K' because units are keyed by global row interval;
    * a resume that itself dies (or fails over) remains resumable — it
      checkpoints its own completed units into the same directory and
      only :meth:`~repro.recovery.CheckpointManager.finish`\\ es on
      success.

    Returns a ``ShardedBoatResult`` whose tree is byte-identical to the
    uninterrupted build's (``report.sampling`` is ``None`` — those
    diagnostics died with the original coordinator).
    """
    reject_float_moments(method, "resume_sharded_build")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    state = load_resumable(
        table, split_config, boat_config, "resume_sharded_build", sharded=True
    )
    schema = table.schema
    manifest = table.manifest
    n = len(table)
    sharded_meta = state.sharded
    if sharded_meta.get("total_rows") != n:
        raise RecoveryError(
            f"checkpoint covers a {sharded_meta.get('total_rows')}-row table "
            f"but the sharded table holds {n} rows"
        )
    if sharded_meta.get("placement") != manifest.placement:
        raise RecoveryError(
            f"checkpoint was taken under {sharded_meta.get('placement')!r} "
            f"placement; this table uses {manifest.placement!r}"
        )
    if sharded_meta.get("schema_digest") != manifest.schema_digest:
        raise RecoveryError(
            "schema digest mismatch between the checkpoint and the sharded "
            "table; resuming would merge statistics across schemas"
        )
    restored = load_unit_results(boat_config.checkpoint_dir, n)

    run = BuildHarness(
        BoatReport(mode="boat-sharded", table_size=n),
        table.io_stats,
        tracer,
        boat_config,
        "sharded resume",
    )
    tracer = run.tracer
    manager = CheckpointManager(
        boat_config.checkpoint_dir, boat_config.checkpoint_every_batches, tracer
    )
    covered = [(lo, hi) for lo, hi, _ in restored]
    manager.restore_units(covered)
    with _ShardSession(
        table, transport, spill_dir, elastic, tracer
    ) as session, run.guard(), tracer.span(
        "sharded_resume",
        table_size=n,
        shards=manifest.n_shards,
        checkpoint=manager.directory,
    ) as resume_span:
        session.report.resumed = True
        session.report.restored_units = run.report.restored_units = len(restored)
        # -- restore --------------------------------------------------------
        run.start()
        root = run.hold(
            restore_skeleton(
                state.skeleton,
                schema,
                boat_config,
                table.io_stats,
                spill_dir=session.scratch,
            )
        )
        units = units_for_intervals(
            uncovered_intervals(covered, n), session.offsets
        )
        resume_span.set(restored_units=len(restored), fresh_units=len(units))
        run.stop("restore")

        # -- elastic cleanup of the uncovered complement --------------------
        run.start()
        _sharded_cleanup(
            session,
            root,
            state.skeleton,
            units,
            restored,
            boat_config,
            manager,
            shard_simulated_mbps,
        )
        run.stop("cleanup_scan")

        # -- finalization (unchanged, exact) --------------------------------
        tree = run.finalize(
            lambda timed: finalize_tree(root, schema, method, split_config, timed=timed)
        )
    return ShardedBoatResult(tree, run.done(manager), session.report)


def _sharded_cleanup(
    session: _ShardSession,
    root: BoatNode,
    skeleton: dict,
    units: list[WorkUnit],
    restored: list[tuple[int, int, Callable[[], ShardScanResult]]],
    boat_config: BoatConfig,
    checkpoint: CheckpointManager | None,
    shard_simulated_mbps: float | None,
) -> None:
    """The cleanup phase of both sharded drivers: scan ``units``, merge.

    Ships ``skeleton`` to every unit, checkpoints each unit the moment it
    wins (when ``checkpoint`` is set), charges each unit's I/O, then
    merges the ``restored`` units (``(lo, hi, load)`` triples, read one
    at a time as they merge) and the fresh results into ``root`` in
    global row order — under range placement exactly the flat scan
    order, so held and frontier rows concatenate byte-identically.  A
    fresh build passes whole-shard units and nothing restored; a resume
    passes the uncovered complement of its checkpoint and the units it
    restored, adds the unit count to the ``shard_cleanup`` span, and
    records a logical full scan only if it restored no unit (otherwise
    the dead coordinator read part of the table).
    """
    table, tracer, report = session.table, session.tracer, session.report
    manifest = table.manifest
    n = len(table)
    resumed = {"units": len(units)} if report.resumed else {}
    with tracer.span("shard_cleanup", shards=manifest.n_shards, **resumed):
        requests = [
            cleanup_request_for_unit(
                unit,
                skeleton,
                boat_config,
                manifest,
                session.scratch,
                shard_simulated_mbps,
            )
            for unit in units
        ]
        on_result = None
        if checkpoint is not None:

            def on_result(index: int, response: dict) -> None:
                unit = units[index]
                checkpoint.checkpoint_unit(unit.lo, unit.hi, response["result"])

        responses = session.dispatch(units, requests, on_result)
        fresh: dict[int, ShardScanResult] = {}
        for unit, response in zip(units, responses):
            scan = response["result"]
            session.charge(unit.shard_id, scan.rows_scanned, scan.io)
            fresh[unit.lo] = scan
        if not restored:
            session.finish_phase()
        loaders = {lo: load for lo, _, load in restored}
        scanned = sum(hi - lo for lo, hi, _ in restored) + sum(
            scan.rows_scanned for scan in fresh.values()
        )
        if scanned != n:
            raise ShardError(
                f"shard units scanned {scanned} rows in total, expected {n}"
            )
        order = sorted([*loaders, *fresh])
        nodes_merged = 0

        def in_row_order():
            # Restored units are read here, one at a time, as they merge.
            nonlocal nodes_merged
            for lo in order:
                scan = fresh.pop(lo) if lo in fresh else loaders[lo]()
                nodes_merged += len(scan.nodes)
                yield scan

        with tracer.span("merge", shards=len(order)) as merge_span:
            candidates = merge_shard_stats(root, in_row_order())
            report.candidate_counts = {
                node_id: int(values.size)
                for node_id, values in candidates.items()
            }
            merge_span.set(nodes_merged=nodes_merged)


def cleanup_request_for_unit(
    unit: WorkUnit,
    skeleton: dict,
    boat_config: BoatConfig,
    manifest,
    scratch: str,
    shard_simulated_mbps: float | None,
) -> dict:
    """The cleanup request carrying one unit's shard-local row bounds."""
    return cleanup_request(
        unit.shard_id,
        skeleton,
        boat_config,
        boat_config.batch_rows,
        manifest.schema_digest,
        manifest.shard_rows[unit.shard_id],
        spill_dir=scratch,
        simulated_mbps=shard_simulated_mbps,
        start_row=unit.local_start,
        stop_row=unit.local_stop,
    )


def _distributed_sample(
    session: _ShardSession, boat_config: BoatConfig, rng: np.random.Generator
) -> np.ndarray:
    """The sampling-phase draw, executed shard-locally.

    Consumes the shared RNG exactly as :func:`repro.storage.sample_known_size`
    would (one global draw, or none at all when the sample covers the
    table), so the downstream bootstrap sees an identical RNG stream.
    """
    table = session.table
    k = boat_config.sample_size
    n = len(table)
    manifest = table.manifest
    if k <= 0:
        return table.schema.empty(0)
    chosen = choose_sample_indices(n, k, rng)
    units = whole_shard_units(session.offsets)
    requests = [
        sample_request(
            unit.shard_id,
            (
                None
                if chosen is None
                else chosen[(chosen >= unit.lo) & (chosen < unit.hi)] - unit.lo
            ),
            boat_config.batch_rows,
            manifest.schema_digest,
            manifest.shard_rows[unit.shard_id],
        )
        for unit in units
    ]
    parts = []
    for response in session.dispatch(units, requests):
        session.charge(response["shard_id"], len(response["rows"]), response["io"])
        parts.append(response["rows"])
    session.finish_phase()
    parts = [p for p in parts if len(p)]
    if not parts:
        return table.schema.empty(0)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
