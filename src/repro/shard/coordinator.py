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
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.boat import BoatReport, make_build_pool
from ..core.bootstrap import sampling_phase
from ..core.finalize import finalize_tree, prefetch_frontier_subtrees
from ..core.state import reject_float_moments
from ..exceptions import ReproError, ShardError, StorageError
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..recovery.checkpoint import (
    CheckpointManager,
    build_digest,
    serialize_skeleton,
)
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, ShardedTable, choose_sample_indices
from ..tree import DecisionTree, build_reference_tree
from .elastic import ElasticDispatcher, ElasticPolicy, whole_shard_units
from .stats import ShardScanResult, ShardVerdict, merge_shard_stats
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


def _resolve_tracer(
    tracer: Tracer | NullTracer | None,
    boat_config: BoatConfig,
    io: IOStats | None,
) -> Tracer | NullTracer:
    if tracer is not None:
        return tracer
    if boat_config.trace:
        return Tracer(io)
    return NULL_TRACER


def _shard_offsets(shard_rows: tuple[int, ...]) -> list[int]:
    offsets = [0]
    for rows in shard_rows:
        offsets.append(offsets[-1] + rows)
    return offsets


class _PhaseAccountant:
    """Folds per-shard worker I/O back into the experiment's counters.

    Worker deltas merge three ways: into the experiment's shared instance
    (``full_scans`` zeroed — the sharded table records one *logical* full
    scan per phase), into the :class:`ShardedTable`'s per-shard private
    counters, and into the build report's per-shard totals.
    """

    def __init__(self, table: ShardedTable, report: ShardReport):
        self._experiment = table.io_stats
        self._table_ios = table.shard_io_stats
        self._report_ios = report.shard_io

    def charge(self, shard_id: int, worker_io: IOStats) -> None:
        delta = worker_io.snapshot()
        self._table_ios[shard_id].merge(delta)
        self._report_ios[shard_id].merge(delta)
        if self._experiment is not None:
            delta.full_scans = 0
            self._experiment.merge(delta)

    def finish_phase(self) -> None:
        if self._experiment is not None:
            self._experiment.record_full_scan()


def _dispatch(
    units: list,
    requests: list[dict],
    transport: ShardTransport,
    table: ShardedTable,
    policy: ElasticPolicy,
    tracer: Tracer | NullTracer,
    shard_report: ShardReport,
    on_result=None,
) -> list[dict]:
    """Run one phase's units through the elastic dispatcher.

    Verdicts and elastic counters land on the report even when dispatch
    fails — a unit whose placements were all exhausted leaves its
    ``ok=False`` verdict behind for the caller's diagnostics.
    """
    dispatcher = ElasticDispatcher(
        units,
        transport,
        table.shard_paths,
        table.replica_paths,
        policy,
        tracer,
    )
    try:
        return dispatcher.run(requests, on_result=on_result)
    finally:
        shard_report.verdicts.extend(dispatcher.verdicts)
        shard_report.failovers += dispatcher.failovers
        shard_report.speculative_launches += dispatcher.speculative_launches
        shard_report.duplicates_discarded += dispatcher.duplicates_discarded


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
    via :func:`~repro.shard.elastic.resume_sharded_build` (or plain
    :func:`repro.recovery.resume_build`, which delegates).
    """
    reject_float_moments(method, "sharded_boat_build")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    rng = np.random.default_rng(boat_config.seed)
    io = table.io_stats
    schema = table.schema
    manifest = table.manifest
    n = len(table)
    tracer = _resolve_tracer(tracer, boat_config, io)
    report = BoatReport(mode="boat-sharded", table_size=n)
    shard_report = ShardReport(
        n_shards=manifest.n_shards,
        transport=transport if isinstance(transport, str) else transport.name,
        placement=manifest.placement,
        shard_rows=manifest.shard_rows,
        shard_io=[IOStats() for _ in range(manifest.n_shards)],
    )
    accountant = _PhaseAccountant(table, shard_report)
    offsets = _shard_offsets(manifest.shard_rows)
    digest = manifest.schema_digest
    policy = elastic if elastic is not None else ElasticPolicy()
    manager: CheckpointManager | None = None

    own_transport = isinstance(transport, str)
    if own_transport:
        transport = make_transport(transport, table.shard_paths)
    scratch = tempfile.mkdtemp(prefix="boat-shard-", dir=spill_dir)

    def phase(name: str, start: float, io_before: IOStats | None) -> None:
        report.wall_seconds[name] = time.perf_counter() - start
        if io is not None and io_before is not None:
            report.io[name] = io.delta_since(io_before)

    result = None
    try:
        with tracer.span(
            "sharded_build", table_size=n, shards=manifest.n_shards
        ):
            # -- sampling phase: distributed draw, central bootstrap -------
            t0 = time.perf_counter()
            io_before = io.snapshot() if io is not None else None
            with tracer.span(
                "sample", requested_rows=boat_config.sample_size
            ) as sample_span:
                sample = _distributed_sample(
                    table, boat_config, rng, offsets, digest,
                    transport, accountant, shard_report, tracer, policy,
                )
                sample_span.set(sample_rows=len(sample))
            if len(sample) >= n:
                with tracer.span("in_memory_build"):
                    tree = build_reference_tree(
                        sample, schema, method, split_config
                    )
                phase("in_memory_build", t0, io_before)
                report.mode = "in-memory"
                if tracer.enabled:
                    report.trace = tracer.report()
                return ShardedBoatResult(tree, report, shard_report)
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
                    digest,
                )
            with make_build_pool(
                sample, schema, method, split_config, boat_config, tracer
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
                    io,
                    pool=pool,
                    tracer=tracer,
                )
                report.sampling = result.report
                phase("sampling", t0, io_before)
                if manager is not None:
                    manager.save_skeleton(result.root)

                # -- distributed cleanup scan + merge ----------------------
                t0 = time.perf_counter()
                io_before = io.snapshot() if io is not None else None
                skeleton = serialize_skeleton(result.root)
                with tracer.span(
                    "shard_cleanup", shards=manifest.n_shards
                ):
                    units = whole_shard_units(offsets)
                    requests = [
                        cleanup_request(
                            unit.shard_id,
                            skeleton,
                            boat_config,
                            boat_config.batch_rows,
                            digest,
                            manifest.shard_rows[unit.shard_id],
                            spill_dir=scratch,
                            simulated_mbps=shard_simulated_mbps,
                        )
                        for unit in units
                    ]
                    on_result = None
                    if manager is not None:

                        def on_result(index: int, response: dict) -> None:
                            unit = units[index]
                            manager.checkpoint_unit(
                                unit.lo, unit.hi, response["result"]
                            )

                    responses = _dispatch(
                        units, requests, transport, table, policy,
                        tracer, shard_report, on_result,
                    )
                    scans: list[ShardScanResult] = []
                    for response in responses:
                        scan = response["result"]
                        scans.append(scan)
                        accountant.charge(scan.shard_id, scan.io)
                        if tracer.enabled:
                            span = tracer.worker_span(
                                "shard_scan",
                                shard=scan.shard_id,
                                rows=scan.rows_scanned,
                            )
                            span.add_io(scan.io)
                            tracer.attach(span)
                    accountant.finish_phase()
                    scanned = sum(scan.rows_scanned for scan in scans)
                    if scanned != n:
                        raise ShardError(
                            f"shards scanned {scanned} rows in total, "
                            f"expected {n}"
                        )
                    with tracer.span("merge", shards=len(scans)) as merge_span:
                        candidates = merge_shard_stats(result.root, scans)
                        shard_report.candidate_counts = {
                            node_id: int(values.size)
                            for node_id, values in candidates.items()
                        }
                        merge_span.set(nodes_merged=sum(
                            len(scan.nodes) for scan in scans
                        ))
                phase("cleanup_scan", t0, io_before)

                # -- finalization (unchanged, exact) -----------------------
                t0 = time.perf_counter()
                io_before = io.snapshot() if io is not None else None
                with tracer.span("finalize") as finalize_span:
                    prefetch = prefetch_frontier_subtrees(
                        result.root, schema, method, split_config, pool
                    )
                    tree, finalize_report = finalize_tree(
                        result.root,
                        schema,
                        method,
                        split_config,
                        prefetch=prefetch,
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
        raise StorageError(f"I/O failure during sharded build: {exc}") from exc
    finally:
        if result is not None:
            result.root.release()
        if own_transport:
            transport.close()
        # The scratch directory also holds whatever a killed local shard
        # worker spilled before dying: sweeping it here is what makes the
        # kill-one-shard drill leave zero spill files behind.
        shutil.rmtree(scratch, ignore_errors=True)
    if manager is not None:
        # Only a fully-successful build consumes its checkpoint; a build
        # that failed (even after retries) stays resumable.
        manager.finish()
    if tracer.enabled:
        report.trace = tracer.report()
    return ShardedBoatResult(tree, report, shard_report)


def _distributed_sample(
    table: ShardedTable,
    boat_config: BoatConfig,
    rng: np.random.Generator,
    offsets: list[int],
    digest: str,
    transport: ShardTransport,
    accountant: _PhaseAccountant,
    shard_report: ShardReport,
    tracer: Tracer | NullTracer,
    policy: ElasticPolicy,
) -> np.ndarray:
    """The sampling-phase draw, executed shard-locally.

    Consumes the shared RNG exactly as :func:`repro.storage.sample_known_size`
    would (one global draw, or none at all when the sample covers the
    table), so the downstream bootstrap sees an identical RNG stream.
    """
    k = boat_config.sample_size
    n = len(table)
    manifest = table.manifest
    if k <= 0:
        return table.schema.empty(0)
    chosen = choose_sample_indices(n, k, rng)
    requests = []
    for shard_id in range(manifest.n_shards):
        lo, hi = offsets[shard_id], offsets[shard_id + 1]
        local = (
            None
            if chosen is None
            else chosen[(chosen >= lo) & (chosen < hi)] - lo
        )
        requests.append(
            sample_request(
                shard_id,
                local,
                boat_config.batch_rows,
                digest,
                manifest.shard_rows[shard_id],
            )
        )
    responses = _dispatch(
        whole_shard_units(offsets), requests, transport, table,
        policy, tracer, shard_report,
    )
    parts = []
    for response in responses:
        accountant.charge(response["shard_id"], response["io"])
        if tracer.enabled:
            span = tracer.worker_span(
                "shard_scan",
                shard=response["shard_id"],
                rows=len(response["rows"]),
            )
            span.add_io(response["io"])
            tracer.attach(span)
        parts.append(response["rows"])
    accountant.finish_phase()
    parts = [p for p in parts if len(p)]
    if not parts:
        return table.schema.empty(0)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
