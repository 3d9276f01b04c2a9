"""Checkpoint format and (de)serialization for crash-safe builds.

A checkpoint directory holds everything a fresh process needs to finish a
build its predecessor started:

* ``meta.json`` — format version, build phase, the table's schema and row
  count, and a digest of every configuration knob that shapes the output
  (resuming under a different tree-defining configuration is refused).
* ``skeleton.json`` — the skeleton tree with its coarse criteria, bucket
  edges and family estimates, written once when the sampling phase ends.
  From that moment the skeleton is immutable, which is what makes the
  cleanup scan checkpointable at all: a checkpoint only has to capture
  *accumulated statistics*, never in-flight structure.
* ``units/`` — one pickled :class:`ShardScanResult` per completed
  cleanup *unit*: the statistics of one global row interval
  ``[lo, hi)``.  The cleanup scan only adds things up — counts add, held
  and family rows concatenate in scan order — so a unit merges into a
  zero-statistics skeleton exactly as its rows would have been scanned.
  A flat build folds every ``checkpoint_every_batches`` batches into one
  unit; a sharded build checkpoints each shard unit as it lands.
* ``units.json`` — the index of completed units, rewritten after each
  unit file is fsynced.

All JSON files are written atomically (tmp file, fsync, ``os.replace``)
and unit files are fsynced *before* the index that references them, so
the directory is consistent after a kill at any instant: the worst case
loses the work since the previous unit, never the checkpoint itself.

Numbers round-trip exactly: split points, interval bounds and bucket
edges are Python floats whose ``repr`` (what :mod:`json` emits) parses
back to the identical IEEE-754 value, and unit payloads are pickled
arrays — resumed builds are byte-identical, not approximately equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.coarse import CoarseCategorical, CoarseCriterion, CoarseNumeric
from ..core.state import BoatNode, apply_batch_delta
from ..core.terminals import NodeDelta
from ..exceptions import RecoveryError, ShardError
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..storage import IOStats, Schema, ShardedTable, ShardManifest, Table

FORMAT_VERSION = 2
META_FILE = "meta.json"
SKELETON_FILE = "skeleton.json"
#: The completed-unit index: global row intervals ``[lo, hi)``.
UNITS_FILE = "units.json"
#: One pickled :class:`ShardScanResult` per completed unit.
UNITS_DIR = "units"

#: Build phases recorded in ``meta.json``, in order.
PHASE_SAMPLING = "sampling"
PHASE_CLEANUP = "cleanup"
PHASE_COMPLETE = "complete"


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write JSON so a kill at any instant leaves the old file or the new."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise RecoveryError(f"checkpoint is missing its {what} ({path})")
    except json.JSONDecodeError as exc:
        raise RecoveryError(f"checkpoint {what} is corrupt ({path}): {exc}")


# ---------------------------------------------------------------------------
# Configuration digest
# ---------------------------------------------------------------------------


def build_digest(
    schema: Schema,
    table_rows: int,
    split_config: SplitConfig,
    boat_config: BoatConfig,
) -> str:
    """Digest of everything that defines the output tree and the skeleton.

    Covers the schema, the table size, the full :class:`SplitConfig`
    (the tree's identity) and the :class:`BoatConfig` knobs that shape the
    skeleton the checkpoint persists (sample, bootstraps, interval
    widening, buckets, seed).  Speed-only knobs — batch size, worker
    count, spill threshold, retry/checkpoint settings — are deliberately
    excluded: a build may be resumed with more workers or a different
    batch size and still produce the identical tree.
    """
    payload = {
        "schema": schema.to_dict(),
        "table_rows": table_rows,
        "split": {
            "min_samples_split": split_config.min_samples_split,
            "min_samples_leaf": split_config.min_samples_leaf,
            "max_depth": split_config.max_depth,
            "max_categorical_exhaustive": split_config.max_categorical_exhaustive,
        },
        "boat": {
            "sample_size": boat_config.sample_size,
            "bootstrap_repetitions": boat_config.bootstrap_repetitions,
            "bootstrap_subsample": boat_config.bootstrap_subsample,
            "interval_widening": boat_config.interval_widening,
            "interval_impurity_slack": boat_config.interval_impurity_slack,
            "inmemory_threshold": boat_config.inmemory_threshold,
            "bucket_budget": boat_config.bucket_budget,
            "seed": boat_config.seed,
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Skeleton (de)serialization
# ---------------------------------------------------------------------------


def _criterion_to_dict(criterion: CoarseCriterion | None) -> dict | None:
    if criterion is None:
        return None
    if isinstance(criterion, CoarseNumeric):
        return {
            "kind": "numeric",
            "attribute_index": criterion.attribute_index,
            "low": criterion.low,
            "high": criterion.high,
        }
    return {
        "kind": "categorical",
        "attribute_index": criterion.attribute_index,
        "subset": sorted(criterion.subset),
    }


def _criterion_from_dict(data: dict | None) -> CoarseCriterion | None:
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "numeric":
        return CoarseNumeric(data["attribute_index"], data["low"], data["high"])
    if kind == "categorical":
        return CoarseCategorical(
            data["attribute_index"], frozenset(data["subset"])
        )
    raise RecoveryError(f"unknown coarse criterion kind {kind!r} in checkpoint")


def serialize_skeleton(root: BoatNode) -> dict:
    """The skeleton's immutable structure as a JSON-safe nested dict."""

    def node_dict(node: BoatNode) -> dict:
        data = {
            "node_id": node.node_id,
            "depth": node.depth,
            "estimated_family": node.estimated_family,
            "criterion": _criterion_to_dict(node.criterion),
            "bucket_edges": {
                str(i): [float(v) for v in edges]
                for i, edges in node.bucket_edges.items()
            },
        }
        if node.left is not None:
            data["left"] = node_dict(node.left)
            data["right"] = node_dict(node.right)
        return data

    return node_dict(root)


def restore_skeleton(
    data: dict,
    schema: Schema,
    config: BoatConfig,
    io_stats: IOStats | None,
    spill_dir: str | None = None,
) -> BoatNode:
    """Rebuild a zero-statistics skeleton tree from its serialized form.

    Node stores spill into ``spill_dir`` (temporary files).  A resume
    merges its checkpointed units into the result; shard workers restore
    *replica* skeletons with a coordinator-owned ``spill_dir``, so any
    replica spill files live where the coordinator can sweep them.
    """

    def build(node_data: dict) -> BoatNode:
        try:
            node = BoatNode(
                node_id=node_data["node_id"],
                depth=node_data["depth"],
                criterion=_criterion_from_dict(node_data["criterion"]),
                schema=schema,
                bucket_edges={
                    int(i): np.asarray(edges, dtype=np.float64)
                    for i, edges in node_data["bucket_edges"].items()
                },
                config=config,
                spill_dir=spill_dir,
                io_stats=io_stats,
                estimated_family=node_data["estimated_family"],
            )
        except KeyError as exc:
            raise RecoveryError(f"checkpoint skeleton is missing field {exc}")
        if "left" in node_data:
            node.left = build(node_data["left"])
            node.right = build(node_data["right"])
            node.left.parent = node
            node.right.parent = node
        return node

    return build(data)


# ---------------------------------------------------------------------------
# Cleanup units: the mergeable statistics of one scanned row interval
# ---------------------------------------------------------------------------


@dataclass
class NodeShardStats:
    """One unit's accumulated statistics for one skeleton node."""

    node_id: int
    class_counts: np.ndarray
    cat_counts: dict[int, np.ndarray]
    bucket_counts: dict[int, np.ndarray]
    below_counts: np.ndarray | None = None
    above_counts: np.ndarray | None = None
    held_rows: np.ndarray | None = None
    family_rows: np.ndarray | None = None
    #: Distinct in-interval values of the criterion attribute a shard
    #: saw (numeric coarse criteria only) — the shard's split-candidate
    #: set; ``None`` in a flat build's units.
    candidate_values: np.ndarray | None = None


@dataclass
class ShardScanResult:
    """The statistics of one cleanup unit: a shard's local scan of its
    row range, or ``checkpoint_every_batches`` batches of a flat scan
    (``shard_id`` 0, no I/O of its own)."""

    shard_id: int
    rows_scanned: int
    nodes: list[NodeShardStats]
    io: IOStats


def _concat(parts: list[np.ndarray | None]) -> np.ndarray | None:
    parts = [p for p in parts if p is not None and len(p)]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def fold_deltas(batches: list[list[NodeDelta]]) -> list[NodeShardStats]:
    """Fold consecutive batches' deltas into one unit's per-node statistics.

    Counts add; held and family rows concatenate in scan order, so
    merging the unit (:func:`merge_shard_stats`) leaves a skeleton
    exactly as applying the batches one by one would.
    """
    by_node: dict[int, list[NodeDelta]] = {}
    for deltas in batches:
        for delta in deltas:
            by_node.setdefault(delta.node.node_id, []).append(delta)
    out: list[NodeShardStats] = []
    for node_id, parts in by_node.items():
        first = parts[0]
        stats = NodeShardStats(
            node_id=node_id,
            class_counts=sum(d.class_counts for d in parts),
            cat_counts={
                i: sum(d.cat_counts[i] for d in parts) for i in first.cat_counts
            },
            bucket_counts={
                i: sum(d.bucket_counts[i] for d in parts) for i in first.bucket_counts
            },
            held_rows=_concat([d.held_rows for d in parts]),
            family_rows=_concat([d.family_rows for d in parts]),
        )
        if first.below_counts is not None:
            stats.below_counts = sum(d.below_counts for d in parts)
            stats.above_counts = sum(d.above_counts for d in parts)
        out.append(stats)
    return out


def merge_shard_stats(
    root: BoatNode, shard_results: Iterable[ShardScanResult]
) -> dict[int, np.ndarray]:
    """Fold unit statistics into a skeleton, in the order given.

    Additive arrays sum; held/family rows append in the order given
    (global row order makes the skeleton bit-identical to a locally
    scanned one).  Returns the merged per-node candidate sets
    (``node_id`` → sorted distinct in-interval values) for the build
    report.  ``shard_results`` may be a generator that loads units
    lazily: each result is dropped before the next is drawn, so a
    resume holds one restored unit at a time.

    Reuses :func:`repro.core.state.apply_batch_delta` — a unit's payload
    is exactly one big :class:`~repro.core.terminals.NodeDelta` per node,
    so the merge and the scan share one mutation path.
    """
    by_id = {node.node_id: node for node in root.nodes()}
    candidates: dict[int, np.ndarray] = {}
    for result in shard_results:
        apply_batch_delta(_unit_deltas(by_id, result, candidates))
        del result
    return candidates


def _unit_deltas(
    by_id: dict[int, BoatNode],
    result: ShardScanResult,
    candidates: dict[int, np.ndarray],
) -> list[NodeDelta]:
    """One unit's payload as per-node deltas; unions its candidate sets."""
    deltas: list[NodeDelta] = []
    for stats in result.nodes:
        node = by_id.get(stats.node_id)
        if node is None:
            raise ShardError(
                f"shard {result.shard_id} reported statistics for unknown "
                f"skeleton node {stats.node_id}"
            )
        deltas.append(
            NodeDelta(
                node=node,
                class_counts=stats.class_counts,
                cat_counts=stats.cat_counts,
                bucket_counts=stats.bucket_counts,
                below_counts=stats.below_counts,
                above_counts=stats.above_counts,
                held_rows=stats.held_rows,
                family_rows=stats.family_rows,
            )
        )
        if stats.candidate_values is not None:
            seen = candidates.get(stats.node_id)
            candidates[stats.node_id] = (
                stats.candidate_values
                if seen is None
                else np.union1d(seen, stats.candidate_values)
            )
    return deltas


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


@dataclass
class CheckpointState:
    """A loaded checkpoint: its metadata and (once saved) its skeleton.

    :func:`load_resumable` also fills in what a resume needs besides the
    skeleton: the completed units as ``(lo, hi, load)`` triples sorted by
    ``lo`` (:func:`load_unit_results`), and the ``uncovered`` row
    intervals of ``[0, n)`` no unit covers — what the resume still has
    to count.
    """

    meta: dict
    skeleton: dict | None
    restored: list[tuple[int, int, Callable[[], ShardScanResult]]] = field(
        default_factory=list
    )
    uncovered: list[tuple[int, int]] = field(default_factory=list)

    @property
    def phase(self) -> str:
        return self.meta.get("phase", PHASE_SAMPLING)

    @property
    def sharded(self) -> dict | None:
        """The sharded-build metadata, or ``None`` for a flat checkpoint."""
        return self.meta.get("sharded")


def unit_file_name(lo: int, hi: int) -> str:
    """Checkpointed cleanup-unit file for global row interval ``[lo, hi)``."""
    return f"unit-{lo:012d}-{hi:012d}.pkl"


def _read_unit(path: str, lo: int, hi: int) -> ShardScanResult:
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.PickleError, EOFError) as exc:
        raise RecoveryError(
            f"checkpoint unit [{lo}, {hi}) is unreadable ({path}): "
            f"{type(exc).__name__}: {exc}"
        )


def load_unit_results(
    directory: str, table_rows: int
) -> list[tuple[int, int, Callable[[], ShardScanResult]]]:
    """A checkpoint's completed cleanup units, sorted by ``lo``.

    Returns ``(lo, hi, load)`` triples; ``load()`` unpickles the unit's
    :class:`ShardScanResult`, so a resume reads and merges one unit at a
    time.  The index is checked before any unit is read: units must be
    non-empty, must not overlap and must lie inside the
    ``table_rows``-row table.  Holes are fine — a resume counts them
    (:func:`uncovered_intervals`).  ``units.json`` is only ever written
    *after* the unit files it references are fsynced, so a bad index or
    a missing file means the directory was corrupted out-of-band —
    refused, since dropping a unit would silently re-scan or skip rows.
    """
    index_path = os.path.join(directory, UNITS_FILE)
    if not os.path.exists(index_path):
        return []
    index = sorted(
        (int(lo), int(hi))
        for lo, hi in _read_json(index_path, "unit index").get("units", [])
    )
    units: list[tuple[int, int, Callable[[], ShardScanResult]]] = []
    cursor = 0
    for lo, hi in index:
        if hi <= lo or hi > table_rows:
            problem = f"is empty or exceeds the {table_rows}-row table"
        elif lo < cursor:
            problem = "overlaps the unit before it"
        else:
            problem = None
        if problem is not None:
            raise RecoveryError(f"checkpoint unit [{lo}, {hi}) {problem}")
        path = os.path.join(directory, UNITS_DIR, unit_file_name(lo, hi))
        if not os.path.exists(path):
            raise RecoveryError(f"checkpoint unit [{lo}, {hi}) is missing ({path})")
        units.append((lo, hi, partial(_read_unit, path, lo, hi)))
        cursor = hi
    return units


def uncovered_intervals(
    covered: list[tuple[int, int]], total_rows: int
) -> list[tuple[int, int]]:
    """The complement of ``covered`` (sorted, non-overlapping) in [0, n)."""
    gaps: list[tuple[int, int]] = []
    cursor = 0
    for lo, hi in sorted(covered):
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < total_rows:
        gaps.append((cursor, total_rows))
    return gaps


def load_checkpoint(directory: str) -> CheckpointState:
    """Read a checkpoint directory, validating its format version."""
    meta = _read_json(os.path.join(directory, META_FILE), "metadata")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise RecoveryError(
            f"checkpoint format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    skeleton = None
    skeleton_path = os.path.join(directory, SKELETON_FILE)
    if os.path.exists(skeleton_path):
        skeleton = _read_json(skeleton_path, "skeleton")
    return CheckpointState(meta=meta, skeleton=skeleton)


def load_resumable(
    table: Table,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    entry: str,
    sharded: bool = False,
) -> CheckpointState:
    """Load the checkpoint a resume over ``table`` finishes, or refuse it.

    One set of guard rails for every resume: a checkpoint directory must
    be named, its kind must fit (a sharded checkpoint resumes over a
    :class:`~repro.storage.ShardedTable` with the recorded row count,
    placement and schema digest, and ``sharded=True`` — the sharded
    resume — takes sharded checkpoints only), the build must be
    unfinished with its skeleton saved, the configuration digest must
    match, so a resume never produces a hybrid of two trees, and the
    unit index must be intact (:func:`load_unit_results`).  Returns the
    state with its restored units and uncovered intervals filled in.
    ``entry`` names the resuming function in the errors.
    """
    directory = boat_config.checkpoint_dir
    if not directory:
        raise RecoveryError(
            f"{entry} requires BoatConfig.checkpoint_dir to name the "
            "checkpoint directory to resume from"
        )
    state = load_checkpoint(directory)
    if state.sharded is not None and not isinstance(table, ShardedTable):
        raise RecoveryError(
            f"checkpoint {directory} records a sharded build; resume it "
            "over its shard directory, not a flat table"
        )
    if sharded and state.sharded is None:
        raise RecoveryError(
            f"checkpoint {directory} records a flat (single-table) build; "
            "resume it with resume_build"
        )
    if state.phase == PHASE_COMPLETE:
        raise RecoveryError(
            f"checkpoint {directory} records a completed build; nothing to "
            "resume"
        )
    if state.skeleton is None:
        raise RecoveryError(
            "the build died before its skeleton was checkpointed (sampling "
            "phase); restart it from scratch — there is no state to save"
        )
    n = len(table)
    digest = build_digest(table.schema, n, split_config, boat_config)
    recorded = state.meta.get("config_digest")
    if digest != recorded:
        raise RecoveryError(
            "configuration digest mismatch: the checkpoint was written under "
            "a different schema/table/configuration than this resume "
            f"(checkpoint {recorded}, resume {digest}); resuming would not "
            "reproduce the original tree"
        )
    if state.sharded is not None:
        manifest = table.manifest
        for key, value in (
            ("total_rows", n),
            ("placement", manifest.placement),
            ("schema_digest", manifest.schema_digest),
        ):
            if state.sharded.get(key) != value:
                raise RecoveryError(
                    f"checkpoint {directory} records {key} "
                    f"{state.sharded.get(key)!r}, but the sharded table has "
                    f"{value!r}; resuming would merge statistics across tables"
                )
    state.restored = load_unit_results(directory, n)
    state.uncovered = uncovered_intervals(
        [(lo, hi) for lo, hi, _ in state.restored], n
    )
    return state


class CheckpointManager:
    """Owns one checkpoint directory for the lifetime of one build.

    The driver calls, in order: :meth:`begin` before the sampling phase
    (a resume calls :meth:`restore_units` instead), :meth:`save_skeleton`
    once the skeleton is fixed, then records completed cleanup units —
    a flat scan hands every committed batch to :meth:`record_batch` and
    calls :meth:`close_unit` at the end of each scanned interval, the
    sharded dispatcher calls :meth:`checkpoint_unit` per unit — and
    :meth:`finish` on success, which sweeps the units and marks the
    checkpoint complete.  A build that dies anywhere in between leaves a
    directory :func:`~repro.core.resume_build` can pick up.
    """

    def __init__(
        self,
        directory: str,
        every_batches: int = 16,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ):
        if every_batches < 1:
            raise ValueError("every_batches must be >= 1")
        self.directory = os.fspath(directory)
        self.every_batches = every_batches
        self._tracer = tracer
        #: Completed cleanup units recorded so far, sorted.
        self._units: list[tuple[int, int]] = []
        #: A flat scan's committed batches not yet in a unit, and the
        #: global rows ``[lo, hi)`` they cover.
        self._pending: list[list[NodeDelta]] = []
        self._pending_lo = self._pending_hi = 0

    @property
    def units_dir(self) -> str:
        return os.path.join(self.directory, UNITS_DIR)

    def _meta_path(self) -> str:
        return os.path.join(self.directory, META_FILE)

    def _set_phase(self, phase: str) -> None:
        meta = _read_json(self._meta_path(), "metadata")
        meta["phase"] = phase
        _atomic_write_json(self._meta_path(), meta)

    def begin(
        self,
        schema: Schema,
        table_rows: int,
        config_digest: str,
        sharded: ShardManifest | None = None,
    ) -> None:
        """Initialize (or reset) the directory for a fresh build.

        ``sharded`` is a sharded build's manifest.  The recorded sharded
        metadata deliberately pins the placement, the total row count and
        the schema digest but **not** the shard count or shard
        boundaries: a checkpoint taken at K shards may be resumed at K'
        after a :func:`repro.storage.reshard`, because completed cleanup
        units are keyed by global row interval — which survives any range
        re-partitioning — rather than by shard id.
        """
        os.makedirs(self.units_dir, exist_ok=True)
        self._sweep()
        meta = {
            "format_version": FORMAT_VERSION,
            "phase": PHASE_SAMPLING,
            "schema": schema.to_dict(),
            "table_rows": table_rows,
            "config_digest": config_digest,
        }
        if sharded is not None:
            meta["sharded"] = {
                "placement": sharded.placement,
                "total_rows": table_rows,
                "schema_digest": sharded.schema_digest,
            }
        _atomic_write_json(self._meta_path(), meta)

    def _sweep(self) -> None:
        """Remove the skeleton, the unit index and every unit file."""
        for name in (SKELETON_FILE, UNITS_FILE):
            try:
                os.remove(os.path.join(self.directory, name))
            except FileNotFoundError:
                pass
        if os.path.isdir(self.units_dir):
            for name in os.listdir(self.units_dir):
                if name.endswith(".pkl") or name.endswith(".tmp"):
                    os.remove(os.path.join(self.units_dir, name))

    def checkpoint_unit(self, lo: int, hi: int, result: ShardScanResult) -> None:
        """Persist one completed cleanup unit (global rows ``[lo, hi)``).

        The pickled result is fsynced before ``units.json`` is atomically
        rewritten to reference it, so a kill at any instant leaves an
        index whose every referenced unit is durable.  Called from the
        scan's (or the elastic dispatcher's) driving thread only.
        """
        path = os.path.join(self.units_dir, unit_file_name(lo, hi))
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._units.append((int(lo), int(hi)))
        self._units.sort()
        _atomic_write_json(
            os.path.join(self.directory, UNITS_FILE),
            {
                "format_version": FORMAT_VERSION,
                "units": [list(unit) for unit in self._units],
            },
        )
        span = self._tracer.current()
        if span is not None:
            span.bump("checkpoints")
        self._tracer.event("checkpoint_unit", lo=lo, hi=hi)

    def restore_units(self, units: list[tuple[int, int]]) -> None:
        """Seed the in-memory unit list from a loaded checkpoint (resume)."""
        self._units = sorted((int(lo), int(hi)) for lo, hi in units)

    def record_batch(self, deltas: list[NodeDelta], lo: int, hi: int) -> None:
        """Collect one committed batch of a flat cleanup scan.

        ``[lo, hi)`` are the batch's global rows.  A unit starts where
        its first batch starts, and every ``every_batches`` batches the
        collected deltas become one unit (:meth:`close_unit`), so
        recording holds at most one unit's rows.  Called on the scan's
        driving thread, in scan order.
        """
        if not self._pending:
            self._pending_lo = lo
        self._pending.append(deltas)
        self._pending_hi = hi
        if len(self._pending) >= self.every_batches:
            self.close_unit()

    def close_unit(self) -> None:
        """Checkpoint the batches recorded since the last unit as one unit.

        Called at the end of every scanned interval too, so no unit spans
        rows another unit covers, and a crash during finalization re-reads
        no rows.
        """
        if not self._pending:
            return
        lo, hi = self._pending_lo, self._pending_hi
        nodes = fold_deltas(self._pending)
        self._pending = []
        self.checkpoint_unit(lo, hi, ShardScanResult(0, hi - lo, nodes, IOStats()))

    def save_skeleton(self, root: BoatNode) -> None:
        """Persist the (now immutable) skeleton; enter the cleanup phase."""
        _atomic_write_json(
            os.path.join(self.directory, SKELETON_FILE), serialize_skeleton(root)
        )
        self._set_phase(PHASE_CLEANUP)
        self._tracer.event("checkpoint_skeleton")

    def finish(self) -> None:
        """Mark the build complete and remove the recovery state, leaving
        ``meta.json`` as a tombstone."""
        self._sweep()
        self._set_phase(PHASE_COMPLETE)
