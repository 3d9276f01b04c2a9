"""Shard-local request execution.

One module-level entry point, :func:`execute_shard_request`, runs on
whatever substrate the transport provides — the coordinator's process,
a multiprocessing pool worker, or a TCP shard server.  Being a pure
function of (shard file, request) makes requests **idempotent**: a
transport may safely retry after a lost response because re-execution
reproduces the identical result.

Two operations:

* ``sample`` — gather the rows at the request's (shard-local, sorted)
  indices in one sequential scan (the sampling phase's per-shard share of
  the coordinator's global draw).
* ``cleanup`` — restore the shipped skeleton as a zero-statistics
  *replica*, run the existing :func:`repro.core.cleanup.cleanup_scan`
  over the shard (honouring the build's worker count, thread backend),
  and extract the accumulated statistics as mergeable payloads.

Failures an operator can act on (schema digest mismatch, row-count
drift, I/O faults mid-scan) come back as ``ok=False`` verdicts in an
``error`` response rather than raising, so the coordinator can OR the
verdicts across shards and surface a single clean error.

Every request charges a private :class:`~repro.storage.IOStats` that is
returned with the response; the coordinator merges it into the shard's
counters (and the experiment's), keeping the per-shard two-scan
invariant assertable at any transport.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..config import BoatConfig
from ..core.cleanup import cleanup_scan
from ..exceptions import ReproError, ShardError
from ..kernels import get_kernels
from ..parallel import WorkerPool
from ..storage import DiskTable, IOStats, gather_rows
from ..storage.sharded import schema_digest
from ..recovery.checkpoint import ShardScanResult, restore_skeleton
from .stats import ShardVerdict, extract_shard_stats

#: Request/response payload keys are plain strings so every transport
#: (in-process dicts, pickled frames) sees one wire format.
OP_PING = "ping"
OP_SAMPLE = "sample"
OP_CLEANUP = "cleanup"


def sample_request(
    shard_id: int,
    indices: np.ndarray | None,
    batch_rows: int,
    expect_digest: str,
    expect_rows: int,
) -> dict:
    """Build a ``sample`` request (``indices=None`` gathers every row)."""
    return {
        "op": OP_SAMPLE,
        "shard_id": shard_id,
        "indices": indices,
        "batch_rows": batch_rows,
        "schema_digest": expect_digest,
        "shard_rows": expect_rows,
    }


def cleanup_request(
    shard_id: int,
    skeleton: dict,
    boat_config: BoatConfig,
    batch_rows: int,
    expect_digest: str,
    expect_rows: int,
    spill_dir: str | None = None,
    simulated_mbps: float | None = None,
    start_row: int = 0,
    stop_row: int | None = None,
) -> dict:
    """Build a ``cleanup`` request shipping the frozen skeleton.

    ``start_row``/``stop_row`` bound the scan to a shard-local row
    interval (``stop_row=None`` = shard end): the elastic coordinator
    dispatches *partial* units after a checkpoint restore or a reshard,
    where only part of a shard's range is still uncovered.  The default
    whole-shard unit is unchanged.
    """
    return {
        "op": OP_CLEANUP,
        "shard_id": shard_id,
        "skeleton": skeleton,
        "boat_config": boat_config,
        "batch_rows": batch_rows,
        "schema_digest": expect_digest,
        "shard_rows": expect_rows,
        "spill_dir": spill_dir,
        "simulated_mbps": simulated_mbps,
        "start_row": start_row,
        "stop_row": stop_row,
    }


def _error_response(shard_id: int, reason: str) -> dict:
    return {
        "status": "error",
        "shard_id": shard_id,
        "verdict": ShardVerdict(shard_id, ok=False, reason=reason),
    }


def _check_shard(
    table: DiskTable, request: dict, shard_id: int
) -> str | None:
    digest = schema_digest(table.schema)
    if digest != request["schema_digest"]:
        return (
            f"schema digest mismatch (shard has {digest[:12]}…, build "
            f"expects {request['schema_digest'][:12]}…)"
        )
    if len(table) != request["shard_rows"]:
        return (
            f"row-count drift: shard holds {len(table)} rows, build "
            f"expects {request['shard_rows']}"
        )
    return None


def execute_shard_request(
    shard_path: str, request: dict, progress=None
) -> dict:
    """Execute one request against one shard file; never raises for
    shard-local failures (they become ``error`` responses).

    ``progress`` (optional) is forwarded to the cleanup scan — used by
    the TCP shard server's chaos hooks and by fault-injecting test
    transports to model a worker dying mid-scan at a chosen batch.
    """
    shard_id = request.get("shard_id", -1)
    op = request.get("op")
    if op == OP_PING:
        return {"status": "ok", "shard_id": shard_id}
    try:
        if op == OP_SAMPLE:
            return _execute_sample(shard_path, request, shard_id)
        if op == OP_CLEANUP:
            return _execute_cleanup(shard_path, request, shard_id, progress)
        raise ShardError(f"unknown shard operation {op!r}")
    except (ReproError, OSError) as exc:
        return _error_response(shard_id, f"{type(exc).__name__}: {exc}")


def _execute_sample(shard_path: str, request: dict, shard_id: int) -> dict:
    io = IOStats()
    with DiskTable.open(shard_path, io) as table:
        bad = _check_shard(table, request, shard_id)
        if bad is not None:
            return _error_response(shard_id, bad)
        indices = request["indices"]
        if indices is None:
            rows = table.read_all(request["batch_rows"])
        else:
            rows = gather_rows(table, indices, request["batch_rows"])
    return {
        "status": "ok",
        "shard_id": shard_id,
        "rows": rows,
        "io": io,
        "verdict": ShardVerdict(shard_id, ok=True),
    }


def _execute_cleanup(
    shard_path: str, request: dict, shard_id: int, progress=None
) -> dict:
    io = IOStats()
    boat_config: BoatConfig = request["boat_config"]
    spill_dir = request["spill_dir"]
    if spill_dir is not None and not os.path.isdir(spill_dir):
        # The coordinator's scratch directory does not exist on this
        # node's filesystem (true multi-node operation): spill locally.
        spill_dir = tempfile.gettempdir()
    with DiskTable.open(
        shard_path, io, simulated_mbps=request["simulated_mbps"]
    ) as table:
        bad = _check_shard(table, request, shard_id)
        if bad is not None:
            return _error_response(shard_id, bad)
        start_row = request.get("start_row") or 0
        stop_row = request.get("stop_row")
        unit_rows = (
            len(table) if stop_row is None else min(stop_row, len(table))
        ) - start_row
        replica = restore_skeleton(
            request["skeleton"],
            table.schema,
            boat_config,
            io,
            spill_dir=spill_dir,
        )
        try:
            with WorkerPool(boat_config.n_workers, "thread") as pool:
                cleanup_scan(
                    replica,
                    table,
                    table.schema,
                    request["batch_rows"],
                    pool=pool,
                    progress=progress,
                    kernels=get_kernels(boat_config.kernel_backend),
                    start_row=start_row,
                    stop_row=stop_row,
                )
            nodes = extract_shard_stats(replica, table.schema)
        finally:
            replica.release()
    return {
        "status": "ok",
        "shard_id": shard_id,
        "result": ShardScanResult(shard_id, unit_rows, nodes, io),
        "verdict": ShardVerdict(shard_id, ok=True),
    }
