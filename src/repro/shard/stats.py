"""Mergeable per-shard statistics and verdicts.

The cleanup scan is a pure accumulation (see ``repro.core.cleanup``), so
everything a shard produces is mergeable by construction:

* **additive arrays** — class histograms, per-categorical contingency
  matrices, per-numeric bucket counts, below/above interval counts — sum
  across shards;
* **row payloads** — tuples held inside a confidence interval ("failed"
  tuples whose side is unknown until the exact split point is fixed) and
  frontier family rows — concatenate in shard order, which under range
  placement reproduces the single-table scan order byte for byte;
* **candidate sets** — the distinct in-interval values each shard saw for
  a numeric criterion's attribute — union (diagnostics: the exact split
  point finalization picks is always one of them);
* **verdicts** — per-shard health checks (scan completed, row count
  matches the manifest, schema digest matches) — OR-combined: one failing
  shard fails the build with a single clean error.

Everything here must cross process and socket boundaries, so payloads are
plain dataclasses of numpy arrays and primitives (picklable).  The unit
payload (:class:`NodeShardStats`, :class:`ShardScanResult`) and its
merge live in :mod:`repro.recovery.checkpoint`, because a flat build's
checkpoint units use them too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.state import BoatNode
from ..exceptions import ShardError
from ..recovery.checkpoint import NodeShardStats
from ..storage import Schema


@dataclass
class ShardVerdict:
    """One shard's health verdict for one request.

    ``ok=False`` verdicts are ORed across shards by the coordinator: any
    failing shard aborts the build with a single :class:`ShardError`
    naming every failure.
    """

    shard_id: int
    ok: bool
    reason: str | None = None


def extract_shard_stats(root: BoatNode, schema: Schema) -> list[NodeShardStats]:
    """Read a scanned replica skeleton into shippable per-node payloads.

    Row payloads are materialized (``read_all`` copies out of any spill
    file), so the replica can be released immediately after extraction.
    """
    out: list[NodeShardStats] = []
    for node in root.nodes():
        stats = NodeShardStats(
            node_id=node.node_id,
            class_counts=node.class_counts,
            cat_counts=node.cat_counts,
            bucket_counts=node.bucket_counts,
        )
        if node.below_counts is not None:
            stats.below_counts = node.below_counts
            stats.above_counts = node.above_counts
        if node.held is not None and len(node.held):
            stats.held_rows = node.held.read_all()
            name = schema[node.criterion.attribute_index].name
            stats.candidate_values = np.unique(stats.held_rows[name])
        if node.family_store is not None and len(node.family_store):
            stats.family_rows = node.family_store.read_all()
        out.append(stats)
    return out


def combine_verdicts(verdicts: list[ShardVerdict]) -> None:
    """OR the shard verdicts; raise one clean error naming every failure."""
    failures = [v for v in verdicts if not v.ok]
    if failures:
        detail = "; ".join(
            f"shard {v.shard_id}: {v.reason or 'failed'}" for v in failures
        )
        raise ShardError(
            f"{len(failures)} of {len(verdicts)} shard(s) failed — {detail}"
        )
