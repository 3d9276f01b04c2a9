"""Sharded data-parallel BOAT: partitioned storage + statistics-merge build.

BOAT's two table scans are embarrassingly data-parallel — the sample draw
gathers predetermined rows and the cleanup scan only *accumulates*
per-node statistics — so a partitioned training database
(:class:`~repro.storage.ShardedTable`) can be scanned shard-locally and
merged centrally without giving up the single-table build's exactness.

Layout:

* :mod:`repro.shard.coordinator` — :func:`sharded_boat_build`, the
  distributed driver (byte-identical output; see ``docs/SHARDING.md``),
  and :func:`resume_sharded_build` for checkpointed coordinators
  (including resume at a different shard count after
  :func:`repro.storage.reshard`); both share one cleanup-and-merge phase.
* :mod:`repro.shard.elastic` — elastic dispatch: replica failover,
  bounded retries, speculative re-execution of stragglers, and the
  work-unit planner.
* :mod:`repro.shard.worker` — shard-local request execution (idempotent
  pure functions, usable from any transport substrate).
* :mod:`repro.shard.stats` — the mergeable statistic types and the
  OR-combined shard verdicts.
* :mod:`repro.shard.transport` — in-process and multiprocessing
  executors over :mod:`repro.parallel`.
* :mod:`repro.shard.rpc` — the stdlib-socket TCP transport and the
  local shard-server cluster used to simulate multi-node operation
  (with chaos hooks for kill-at-batch failure drills).
* :mod:`repro.shard.testing` — :class:`FaultyTransport`, the
  fault-injecting transport wrapper behind the chaos-drill tests.
"""

from .coordinator import (
    ShardedBoatResult,
    ShardReport,
    resume_sharded_build,
    sharded_boat_build,
)
from .elastic import (
    ElasticDispatcher,
    ElasticPolicy,
    WorkUnit,
    uncovered_intervals,
    units_for_intervals,
    whole_shard_units,
)
from .testing import TRANSPORT_FAULT_KINDS, FaultyTransport
from .stats import (
    NodeShardStats,
    ShardScanResult,
    ShardVerdict,
    combine_verdicts,
    extract_shard_stats,
    merge_shard_stats,
)
from .transport import (
    TRANSPORTS,
    InProcessTransport,
    ProcessTransport,
    ShardTransport,
    make_transport,
)
from .worker import execute_shard_request

__all__ = [
    "ElasticDispatcher",
    "ElasticPolicy",
    "FaultyTransport",
    "InProcessTransport",
    "NodeShardStats",
    "ProcessTransport",
    "ShardReport",
    "ShardScanResult",
    "ShardTransport",
    "ShardVerdict",
    "ShardedBoatResult",
    "TRANSPORTS",
    "TRANSPORT_FAULT_KINDS",
    "WorkUnit",
    "combine_verdicts",
    "execute_shard_request",
    "extract_shard_stats",
    "make_transport",
    "merge_shard_stats",
    "resume_sharded_build",
    "sharded_boat_build",
    "uncovered_intervals",
    "units_for_intervals",
    "whole_shard_units",
]
