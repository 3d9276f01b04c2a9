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
  *accumulated state*, never in-flight structure.
* ``cleanup_state.json`` — the cleanup scan's progress: the scan offset
  (rows fully accumulated), every node's statistics arrays, and a
  manifest of durable spill files (row counts for each node's held /
  family store).  Rewritten atomically every N batches.
* ``spills/`` — one durable spill file per non-empty node store, named
  ``node{id:06d}-{held|family}.spill``.  Stores append to these files as
  the scan runs; :meth:`~repro.storage.TupleStore.checkpoint` fsyncs them
  and reports the row count the manifest records.  On restore the files
  are truncated back to their manifest counts, discarding torn or
  post-checkpoint appends.

All JSON files are written atomically (tmp file, fsync, ``os.replace``)
and spill files are fsynced *before* the manifest that references them,
so the directory is consistent after a kill at any instant: the worst
case loses the work since the previous checkpoint, never the checkpoint
itself.

Numbers round-trip exactly: split points, interval bounds and bucket
edges are Python floats whose ``repr`` (what :mod:`json` emits) parses
back to the identical IEEE-754 value — resumed builds are byte-identical,
not approximately equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.coarse import CoarseCategorical, CoarseCriterion, CoarseNumeric
from ..core.state import BoatNode, durable_store_path
from ..exceptions import RecoveryError
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..storage import IOStats, Schema, ShardedTable, Table, TupleStore

FORMAT_VERSION = 1
META_FILE = "meta.json"
SKELETON_FILE = "skeleton.json"
STATE_FILE = "cleanup_state.json"
SPILL_DIR = "spills"
#: Sharded-build checkpoint state (see :mod:`repro.shard.elastic`):
#: ``shard_state.json`` lists the completed cleanup units (global row
#: intervals), ``units/`` holds one pickled
#: :class:`~repro.shard.stats.ShardScanResult` per completed unit.
SHARD_STATE_FILE = "shard_state.json"
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
    durable_dir: str | None,
    spill_dir: str | None = None,
) -> BoatNode:
    """Rebuild a zero-statistics skeleton tree from its serialized form.

    Every node store is created with its deterministic durable path under
    ``durable_dir`` (but no file yet — :func:`restore_cleanup_state`
    attaches the checkpointed files afterwards).  Shard workers restore
    *replica* skeletons with ``durable_dir=None`` and a coordinator-owned
    ``spill_dir``, so any replica spill files live where the coordinator
    can sweep them.
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
                durable_dir=durable_dir,
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
# Cleanup-scan state (de)serialization
# ---------------------------------------------------------------------------


def serialize_cleanup_state(root: BoatNode, rows_scanned: int) -> dict:
    """Snapshot the scan's accumulated state; flushes durable stores.

    Calling this checkpoints every node store
    (:meth:`~repro.storage.TupleStore.checkpoint`: spill + fsync), so the
    row counts recorded in the returned manifest are on disk before the
    caller persists the manifest itself.
    """
    nodes: dict[str, dict] = {}
    for node in root.nodes():
        entry: dict = {
            "class_counts": node.class_counts.tolist(),
            "cat_counts": {
                str(i): m.tolist() for i, m in node.cat_counts.items()
            },
            "bucket_counts": {
                str(i): m.tolist() for i, m in node.bucket_counts.items()
            },
        }
        if node.below_counts is not None:
            entry["below_counts"] = node.below_counts.tolist()
            entry["above_counts"] = node.above_counts.tolist()
        if node.held is not None:
            entry["held_rows"] = node.held.checkpoint()
        if node.family_store is not None:
            entry["family_rows"] = node.family_store.checkpoint()
        nodes[str(node.node_id)] = entry
    return {
        "format_version": FORMAT_VERSION,
        "rows_scanned": rows_scanned,
        "nodes": nodes,
    }


def restore_cleanup_state(
    root: BoatNode,
    state: dict,
    schema: Schema,
    config: BoatConfig,
    io_stats: IOStats | None,
    durable_dir: str,
) -> int:
    """Load checkpointed statistics into a restored skeleton.

    Re-attaches every durable spill file named in the manifest (truncated
    to its recorded row count).  Returns the checkpointed scan offset —
    the row the resumed cleanup scan starts from.
    """
    nodes = state.get("nodes", {})
    for node in root.nodes():
        entry = nodes.get(str(node.node_id))
        if entry is None:
            raise RecoveryError(
                f"checkpoint cleanup state has no entry for skeleton node "
                f"{node.node_id}"
            )
        node.class_counts = np.asarray(entry["class_counts"], dtype=np.int64)
        node.cat_counts = {
            int(i): np.asarray(m, dtype=np.int64)
            for i, m in entry["cat_counts"].items()
        }
        node.bucket_counts = {
            int(i): np.asarray(m, dtype=np.int64)
            for i, m in entry["bucket_counts"].items()
        }
        if node.below_counts is not None:
            node.below_counts = np.asarray(entry["below_counts"], dtype=np.int64)
            node.above_counts = np.asarray(entry["above_counts"], dtype=np.int64)
        if node.held is not None:
            node.held = TupleStore.restore(
                schema,
                durable_store_path(durable_dir, node.node_id, "held"),
                entry["held_rows"],
                config.spill_threshold_rows,
                io_stats,
            )
        if node.family_store is not None:
            node.family_store = TupleStore.restore(
                schema,
                durable_store_path(durable_dir, node.node_id, "family"),
                entry["family_rows"],
                config.spill_threshold_rows,
                io_stats,
            )
    return int(state["rows_scanned"])


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


@dataclass
class CheckpointState:
    """A loaded checkpoint: metadata, skeleton, and optional scan progress."""

    meta: dict
    skeleton: dict | None
    cleanup: dict | None

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


def load_unit_results(directory: str) -> list[tuple[int, int, object]]:
    """Load a sharded checkpoint's completed cleanup units, sorted by ``lo``.

    Returns ``(lo, hi, ShardScanResult)`` triples.  ``shard_state.json``
    is only ever written *after* the unit files it references are
    fsynced, so a referenced file that is missing or unreadable means the
    checkpoint directory was corrupted out-of-band — refused rather than
    silently dropped, since dropping a unit would silently re-scan
    already-counted rows.
    """
    state_path = os.path.join(directory, SHARD_STATE_FILE)
    if not os.path.exists(state_path):
        return []
    state = _read_json(state_path, "shard state")
    units: list[tuple[int, int, object]] = []
    for lo, hi in state.get("units", []):
        path = os.path.join(directory, UNITS_DIR, unit_file_name(lo, hi))
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError) as exc:
            raise RecoveryError(
                f"checkpoint unit [{lo}, {hi}) is unreadable ({path}): "
                f"{type(exc).__name__}: {exc}"
            )
        units.append((int(lo), int(hi), result))
    units.sort(key=lambda triple: triple[0])
    return units


def load_checkpoint(directory: str) -> CheckpointState:
    """Read a checkpoint directory, validating version and consistency."""
    meta = _read_json(os.path.join(directory, META_FILE), "metadata")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise RecoveryError(
            f"checkpoint format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    skeleton = None
    cleanup = None
    skeleton_path = os.path.join(directory, SKELETON_FILE)
    if os.path.exists(skeleton_path):
        skeleton = _read_json(skeleton_path, "skeleton")
    state_path = os.path.join(directory, STATE_FILE)
    if os.path.exists(state_path):
        cleanup = _read_json(state_path, "cleanup state")
    return CheckpointState(meta=meta, skeleton=skeleton, cleanup=cleanup)


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
    :class:`~repro.storage.ShardedTable`, and ``sharded=True`` — the
    sharded resume — takes sharded checkpoints only), the build must be
    unfinished with its skeleton saved, and the configuration digest
    must match, so a resume never produces a hybrid of two trees.
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
    digest = build_digest(table.schema, len(table), split_config, boat_config)
    recorded = state.meta.get("config_digest")
    if digest != recorded:
        raise RecoveryError(
            "configuration digest mismatch: the checkpoint was written under "
            "a different schema/table/configuration than this resume "
            f"(checkpoint {recorded}, resume {digest}); resuming would not "
            "reproduce the original tree"
        )
    return state


class CheckpointManager:
    """Owns one checkpoint directory for the lifetime of one build.

    The driver calls, in order: :meth:`begin` (before the sampling phase),
    :meth:`save_skeleton` (once the skeleton is fixed),
    :meth:`progress_hook` (wired into the cleanup scan; fires
    :meth:`checkpoint_cleanup` every ``every_batches`` batches), and
    :meth:`finish` on success — which sweeps the spill files and marks the
    checkpoint complete.  A build that dies anywhere in between leaves a
    directory :func:`resume_build` can pick up.
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
        self._batches_since = 0
        #: Checkpoints written during this build (diagnostics/tests).
        self.checkpoints_written = 0
        #: Completed cleanup units recorded so far (sharded builds).
        self._units: list[tuple[int, int]] = []

    @property
    def spill_dir(self) -> str:
        return os.path.join(self.directory, SPILL_DIR)

    @property
    def units_dir(self) -> str:
        return os.path.join(self.directory, UNITS_DIR)

    def _meta_path(self) -> str:
        return os.path.join(self.directory, META_FILE)

    def _set_phase(self, phase: str) -> None:
        meta = _read_json(self._meta_path(), "metadata")
        meta["phase"] = phase
        _atomic_write_json(self._meta_path(), meta)

    def begin(self, schema: Schema, table_rows: int, config_digest: str) -> dict:
        """Initialize (or reset) the directory for a fresh build."""
        os.makedirs(self.spill_dir, exist_ok=True)
        self._sweep_stale()
        meta = {
            "format_version": FORMAT_VERSION,
            "phase": PHASE_SAMPLING,
            "schema": schema.to_dict(),
            "table_rows": table_rows,
            "config_digest": config_digest,
        }
        _atomic_write_json(self._meta_path(), meta)
        return meta

    def _sweep_stale(self) -> None:
        for name in (SKELETON_FILE, STATE_FILE, SHARD_STATE_FILE):
            try:
                os.remove(os.path.join(self.directory, name))
            except FileNotFoundError:
                pass
        for name in os.listdir(self.spill_dir):
            if name.endswith(".spill"):
                os.remove(os.path.join(self.spill_dir, name))
        if os.path.isdir(self.units_dir):
            for name in os.listdir(self.units_dir):
                if name.endswith(".pkl") or name.endswith(".tmp"):
                    os.remove(os.path.join(self.units_dir, name))

    def begin_sharded(
        self,
        schema: Schema,
        table_rows: int,
        config_digest: str,
        placement: str,
        schema_digest: str,
    ) -> dict:
        """Initialize the directory for a fresh *sharded* build.

        The recorded sharded metadata deliberately pins the placement,
        the total row count and the schema digest but **not** the shard
        count or shard boundaries: a checkpoint taken at K shards may be
        resumed at K' after a :func:`repro.storage.reshard`, because
        completed cleanup units are keyed by global row interval — which
        survives any range re-partitioning — rather than by shard id.
        """
        os.makedirs(self.units_dir, exist_ok=True)
        meta = self.begin(schema, table_rows, config_digest)
        meta["sharded"] = {
            "placement": placement,
            "total_rows": table_rows,
            "schema_digest": schema_digest,
        }
        _atomic_write_json(self._meta_path(), meta)
        return meta

    def checkpoint_unit(self, lo: int, hi: int, result: object) -> None:
        """Persist one completed cleanup unit (global rows ``[lo, hi)``).

        The pickled result is fsynced before ``shard_state.json`` is
        atomically rewritten to reference it, so a kill at any instant
        leaves a state file whose every referenced unit is durable.
        Called from the elastic dispatcher's driving thread only.
        """
        os.makedirs(self.units_dir, exist_ok=True)
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
            os.path.join(self.directory, SHARD_STATE_FILE),
            {
                "format_version": FORMAT_VERSION,
                "units": [list(unit) for unit in self._units],
            },
        )
        self.checkpoints_written += 1
        span = self._tracer.current()
        if span is not None:
            span.bump("checkpoints")
        self._tracer.event("checkpoint_unit", lo=lo, hi=hi)

    def restore_units(self, units: list[tuple[int, int]]) -> None:
        """Seed the in-memory unit list from a loaded checkpoint (resume)."""
        self._units = sorted((int(lo), int(hi)) for lo, hi in units)

    def save_skeleton(self, root: BoatNode) -> None:
        """Persist the (now immutable) skeleton; enter the cleanup phase."""
        _atomic_write_json(
            os.path.join(self.directory, SKELETON_FILE), serialize_skeleton(root)
        )
        self._set_phase(PHASE_CLEANUP)
        self._tracer.event("checkpoint_skeleton")

    def checkpoint_cleanup(self, root: BoatNode, rows_scanned: int) -> None:
        """Persist scan progress: spill files first, then the manifest."""
        self._batches_since = 0
        state = serialize_cleanup_state(root, rows_scanned)
        _atomic_write_json(os.path.join(self.directory, STATE_FILE), state)
        self.checkpoints_written += 1
        span = self._tracer.current()
        if span is not None:
            span.bump("checkpoints")
        self._tracer.event("checkpoint", rows_scanned=rows_scanned)

    def progress_hook(self, root: BoatNode) -> Callable[[int], None]:
        """A cleanup-scan ``progress`` callback checkpointing every N batches."""

        def on_progress(rows_scanned: int) -> None:
            self._batches_since += 1
            if self._batches_since >= self.every_batches:
                self.checkpoint_cleanup(root, rows_scanned)

        return on_progress

    def finish(self) -> None:
        """Mark the build complete and remove the recovery state.

        Durable spill files are swept here — stores only *drop* them on
        ``clear()`` (see :meth:`repro.storage.TupleStore.clear`) precisely
        so that this sweep is the single point where recovery state dies.
        """
        for name in (SKELETON_FILE, STATE_FILE, SHARD_STATE_FILE):
            try:
                os.remove(os.path.join(self.directory, name))
            except FileNotFoundError:
                pass
        if os.path.isdir(self.spill_dir):
            for name in os.listdir(self.spill_dir):
                if name.endswith(".spill"):
                    os.remove(os.path.join(self.spill_dir, name))
        if os.path.isdir(self.units_dir):
            for name in os.listdir(self.units_dir):
                if name.endswith(".pkl") or name.endswith(".tmp"):
                    os.remove(os.path.join(self.units_dir, name))
        self._set_phase(PHASE_COMPLETE)
