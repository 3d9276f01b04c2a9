"""The sharded BOAT build coordinator.

:func:`sharded_boat_build` runs the one BOAT driver,
:func:`repro.core.boat.drive`, over a :class:`~repro.storage.ShardedTable`
with the two table scans distributed to the shards (the
:class:`_ShardSession` source):

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

:func:`resume_sharded_build` is the same driver with the skeleton read
from a dead coordinator's checkpoint: it restores the completed units
and dispatches only the uncovered rows; a fresh build is a resume with
nothing restored.

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

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.boat import BoatReport, drive, resolve_tracer
from ..core.state import BoatNode, reject_float_moments
from ..exceptions import ShardError
from ..observability import NullTracer, Tracer
from ..parallel import WorkerPool
from ..recovery.checkpoint import (
    CheckpointManager,
    CheckpointState,
    ShardScanResult,
    load_resumable,
    merge_shard_stats,
    serialize_skeleton,
)
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, ShardedTable, choose_sample_indices
from ..tree import DecisionTree
from .elastic import (
    ElasticDispatcher,
    ElasticPolicy,
    WorkUnit,
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
    """The sharded source of :func:`repro.core.boat.drive`, torn down on exit.

    Draws the sample (:meth:`sample`) and counts the rows
    (:meth:`count`) through elastic shard dispatch.  Owns the
    :class:`ShardReport`, the shard offsets, the elastic policy, the
    transport (closed on exit when built here from a name) and the
    coordinator's scratch directory (swept on exit).  :meth:`charge`
    folds per-shard worker I/O back into the experiment's counters three
    ways: into the experiment's shared instance (``full_scans`` zeroed —
    the sharded table records one *logical* full scan per phase, see
    :meth:`finish_phase`), into the :class:`ShardedTable`'s per-shard
    private counters, and into the report's per-shard totals.
    """

    kind, mode = "sharded", "boat-sharded"

    def __init__(
        self,
        table: ShardedTable,
        transport: ShardTransport | str,
        spill_dir: str | None,
        elastic: ElasticPolicy | None,
        tracer: Tracer | NullTracer,
        boat_config: BoatConfig,
        shard_simulated_mbps: float | None,
    ):
        manifest = self.manifest = table.manifest
        self.table = table
        self.tracer = tracer
        self.boat_config = boat_config
        self.shard_simulated_mbps = shard_simulated_mbps
        self.span_attrs = {"shards": manifest.n_shards}
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

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The sampling-phase draw, executed shard-locally.

        Consumes the shared RNG exactly as
        :func:`repro.storage.sample_known_size` would (one global draw, or
        none at all when the sample covers the table), so the downstream
        bootstrap sees an identical RNG stream.
        """
        table, manifest = self.table, self.manifest
        batch_rows, k = self.boat_config.batch_rows, self.boat_config.sample_size
        if k <= 0:
            return table.schema.empty(0)
        chosen = choose_sample_indices(len(table), k, rng)
        units = whole_shard_units(self.offsets)
        requests = [
            sample_request(
                unit.shard_id,
                (
                    None
                    if chosen is None
                    else chosen[(chosen >= unit.lo) & (chosen < unit.hi)] - unit.lo
                ),
                batch_rows,
                manifest.schema_digest,
                manifest.shard_rows[unit.shard_id],
            )
            for unit in units
        ]
        parts = []
        for response in self.dispatch(units, requests):
            self.charge(response["shard_id"], len(response["rows"]), response["io"])
            parts.append(response["rows"])
        self.finish_phase()
        parts = [p for p in parts if len(p)]
        if not parts:
            return table.schema.empty(0)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def count(
        self,
        root: BoatNode,
        pool: WorkerPool,
        checkpoint: CheckpointManager | None,
        resume: CheckpointState | None,
    ) -> None:
        """Dispatch the rows no restored unit covers as work units; merge.

        A fresh build dispatches whole-shard units; a resume, its
        uncovered intervals cut at the *current* shard boundaries.  Ships
        the skeleton to every unit, checkpoints each unit the moment it
        wins (when ``checkpoint`` is set), charges each unit's I/O, then
        merges the restored units (read one at a time as they merge) and
        the fresh results into ``root`` in global row order — under range
        placement exactly the flat scan order, so held and frontier rows
        concatenate byte-identically.  A resume adds the unit count to
        the ``shard_cleanup`` span and records a logical full scan only if
        it restored no unit (otherwise the dead coordinator read part of
        the table).
        """
        tracer, report, manifest = self.tracer, self.report, self.manifest
        config = self.boat_config
        restored = [] if resume is None else resume.restored
        if resume is None:
            units = whole_shard_units(self.offsets)
        else:
            units = units_for_intervals(resume.uncovered, self.offsets)
            report.resumed = True
            report.restored_units = len(restored)
        n = len(self.table)
        resumed = {"units": len(units)} if report.resumed else {}
        with tracer.span("shard_cleanup", shards=manifest.n_shards, **resumed):
            skeleton = serialize_skeleton(root)
            requests = [
                cleanup_request(
                    unit.shard_id,
                    skeleton,
                    config,
                    config.batch_rows,
                    manifest.schema_digest,
                    manifest.shard_rows[unit.shard_id],
                    spill_dir=self.scratch,
                    simulated_mbps=self.shard_simulated_mbps,
                    start_row=unit.local_start,
                    stop_row=unit.local_stop,
                )
                for unit in units
            ]
            on_result = None
            if checkpoint is not None:

                def on_result(index: int, response: dict) -> None:
                    unit = units[index]
                    checkpoint.checkpoint_unit(unit.lo, unit.hi, response["result"])

            responses = self.dispatch(units, requests, on_result)
            fresh: dict[int, ShardScanResult] = {}
            for unit, response in zip(units, responses):
                scan = response["result"]
                self.charge(unit.shard_id, scan.rows_scanned, scan.io)
                fresh[unit.lo] = scan
            if not restored:
                self.finish_phase()
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
    as they land (one unit per dispatched work unit;
    ``checkpoint_every_batches`` does not apply), and a SIGKILL'd
    coordinator finishes byte-identically via :func:`resume_sharded_build`
    (or plain :func:`repro.recovery.resume_build`, which delegates).
    """
    reject_float_moments(method, "sharded_boat_build")
    return _build(
        table,
        method,
        split_config or SplitConfig(),
        boat_config or BoatConfig(),
        spill_dir,
        tracer,
        transport,
        shard_simulated_mbps,
        elastic,
    )


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

    The same driver as :func:`sharded_boat_build`, with the skeleton read
    from the checkpoint (:func:`repro.recovery.load_resumable`).
    Completed cleanup units are restored; only the uncovered intervals of
    the table — cut at the *current* shard boundaries — are dispatched,
    so:

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
    resume = load_resumable(
        table, split_config, boat_config, "resume_sharded_build", sharded=True
    )
    return _build(
        table,
        method,
        split_config,
        boat_config,
        spill_dir,
        tracer,
        transport,
        shard_simulated_mbps,
        elastic,
        resume,
    )


def _build(
    table: ShardedTable,
    method: ImpuritySplitSelection,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    spill_dir: str | None,
    tracer: Tracer | NullTracer | None,
    transport: ShardTransport | str,
    shard_simulated_mbps: float | None,
    elastic: ElasticPolicy | None,
    resume: CheckpointState | None = None,
) -> ShardedBoatResult:
    """Both sharded entry points: the one driver over a shard session."""
    tracer = resolve_tracer(tracer, boat_config, table.io_stats)
    with _ShardSession(
        table, transport, spill_dir, elastic, tracer, boat_config, shard_simulated_mbps
    ) as session:
        tree, report = drive(
            session, method, split_config, boat_config, spill_dir, tracer, resume
        )
    return ShardedBoatResult(tree, report, session.report)


