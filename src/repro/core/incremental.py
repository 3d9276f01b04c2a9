"""Incremental decision tree maintenance (§4 of the paper).

:class:`IncrementalBoat` keeps, between updates, everything BOAT's cleanup
phase collected: the skeleton with its coarse criteria, the per-node
statistics, the held tuples inside each confidence interval, and the
frontier families.  To incorporate a chunk of insertions (or deletions)
it streams the chunk down the skeleton exactly as the cleanup scan would
— one pass over the *chunk*, never over the original database — and then
re-runs the finalization pass.

Guarantees, mirroring the paper:

* the maintained tree is *exactly* the tree a from-scratch build on the
  updated database would produce;
* if the chunk is drawn from the same distribution, updates touch only
  counts and held stores, and unchanged subtrees are served from the
  finalization cache — update cost is independent of |D|;
* if the distribution changed, the failure checks fire exactly where the
  tree is no longer defensible, and only those subtrees are rebuilt (with
  a fresh mini-BOAT sampling phase so future updates stay cheap).  The
  rebuild log doubles as a drift report for the analyst.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import RecoveryError, TreeStructureError
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, Schema, Table
from ..tree import DecisionTree
from .boat import BuildHarness
from .bootstrap import sampling_phase
from .cleanup import cleanup_scan
from .finalize import FinalizeReport, Finalizer, config_at_depth
from .state import BoatNode, apply_batch_delta, collect_family, reject_float_moments
from .terminals import SkeletonPlan, compile_skeleton


#: Per-update reports (and drift lines) a maintainer keeps: the most
#: recent ones only, so a long-running ``repro serve --stream`` holds
#: bounded memory however many updates it applies.
REPORT_HISTORY = 256


@dataclass
class UpdateReport:
    """Diagnostics of one insert/delete/build operation."""

    operation: str
    chunk_size: int
    wall_seconds: float
    finalize: FinalizeReport
    #: Human-readable description of where the tree was rebuilt — the §4
    #: drift report ("specific parts of the tree changed significantly").
    drift: list[str] = field(default_factory=list)


class IncrementalBoat:
    """A decision tree maintained under chunk insertions and deletions."""

    def __init__(
        self,
        schema: Schema,
        method: ImpuritySplitSelection,
        split_config: SplitConfig | None = None,
        boat_config: BoatConfig | None = None,
        spill_dir: str | None = None,
        io_stats: IOStats | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        reject_float_moments(method, "IncrementalBoat")
        self._schema = schema
        self._method = method
        self._split_config = split_config or SplitConfig()
        self._config = boat_config or BoatConfig()
        self._kernels = get_kernels(self._config.kernel_backend)
        self._spill_dir = spill_dir
        self._io = io_stats
        if tracer is None:
            tracer = Tracer(io_stats) if self._config.trace else NULL_TRACER
        #: The maintainer's tracer: one ``incremental_build`` span for the
        #: initial construction, one ``incremental`` span per update.
        self.tracer = tracer
        self._ids = itertools.count()
        self._node_ids = itertools.count(1_000_000)
        self._rng = np.random.default_rng(self._config.seed)
        self._skeleton: BoatNode | None = None
        #: The last compiled skeleton, keyed by its nodes' identities.
        self._plan: tuple[tuple[int, ...], SkeletonPlan] | None = None
        self._tree: DecisionTree | None = None
        self._n_rows = 0
        #: The most recent :data:`REPORT_HISTORY` update reports, oldest first.
        self.reports: deque[UpdateReport] = deque(maxlen=REPORT_HISTORY)
        #: Drift lines of the most recent updates, oldest first (bounded).
        self.drift: deque[str] = deque(maxlen=REPORT_HISTORY)
        self._listeners: list = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        table: Table,
        method: ImpuritySplitSelection,
        split_config: SplitConfig | None = None,
        boat_config: BoatConfig | None = None,
        spill_dir: str | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> "IncrementalBoat":
        """Initial construction from a training table (two scans).

        Like ``boat_build``, a raw :class:`OSError` surfaces as a
        :class:`~repro.exceptions.StorageError` with every store the
        skeleton created released.  ``checkpoint_dir`` is refused with a
        :class:`~repro.exceptions.RecoveryError` before any scan: a
        maintained tree cannot be checkpointed or resumed.
        """
        boat_config = boat_config or BoatConfig()
        if boat_config.checkpoint_dir:
            raise RecoveryError(
                "IncrementalBoat cannot checkpoint or resume: drop "
                "BoatConfig.checkpoint_dir"
            )
        maintainer = cls(
            table.schema,
            method,
            split_config,
            boat_config,
            spill_dir,
            table.io_stats,
            tracer=tracer,
        )
        maintainer._initial_build(table)
        return maintainer

    @classmethod
    def from_chunk(
        cls,
        chunk: np.ndarray,
        schema: Schema,
        method: ImpuritySplitSelection,
        split_config: SplitConfig | None = None,
        boat_config: BoatConfig | None = None,
        spill_dir: str | None = None,
    ) -> "IncrementalBoat":
        """Start a maintained tree from an in-memory first chunk."""
        maintainer = cls(schema, method, split_config, boat_config, spill_dir)
        start = time.perf_counter()
        with maintainer.tracer.span("incremental_build", table_size=len(chunk)):
            # _grow_skeleton both builds the skeleton and streams the chunk
            # through it; streaming again here would double-count every tuple.
            maintainer._skeleton = maintainer._grow_skeleton(chunk, depth=0)
            maintainer._n_rows = len(chunk)
            report = maintainer._finalize()
        maintainer._record("build", len(chunk), start, report)
        return maintainer

    def _initial_build(self, table: Table) -> None:
        from ..storage import sample_table  # local import to avoid cycle noise

        start = time.perf_counter()
        run = BuildHarness(
            None, self._io, self.tracer, self._config, "incremental build"
        )
        with run.guard(keep=True), self.tracer.span(
            "incremental_build", table_size=len(table)
        ):
            with self.tracer.span(
                "sample", requested_rows=self._config.sample_size
            ) as sample_span:
                sample = sample_table(
                    table, self._config.sample_size, self._rng, self._config.batch_rows
                )
                sample_span.set(sample_rows=len(sample))
            if len(sample) >= len(table):
                self._skeleton = run.hold(self._frontier_node(depth=0))
            else:
                result = sampling_phase(
                    sample,
                    self._schema,
                    self._method,
                    self._split_config,
                    self._config,
                    len(table),
                    self._rng,
                    self._spill_dir,
                    self._io,
                    tracer=self.tracer,
                )
                self._skeleton = run.hold(result.root)
            cleanup_scan(
                self._skeleton,
                table,
                self._schema,
                self._config.batch_rows,
                tracer=self.tracer,
                kernels=self._kernels,
            )
            self._n_rows = len(table)
            report = self._finalize()
        self._record("build", len(table), start, report)

    # -- updates --------------------------------------------------------------

    def insert(self, chunk: np.ndarray) -> UpdateReport:
        """Incorporate new training tuples; returns the update report."""
        return self._update(chunk, "insert", sign=1)

    def delete(self, chunk: np.ndarray) -> UpdateReport:
        """Expire training tuples (bitwise record match required)."""
        return self._update(chunk, "delete", sign=-1)

    def _update(self, chunk: np.ndarray, operation: str, sign: int) -> UpdateReport:
        if self._skeleton is None:
            raise TreeStructureError("IncrementalBoat has not been built yet")
        self._schema.validate_batch(chunk)
        start = time.perf_counter()
        with self.tracer.span(
            "incremental", operation=operation, chunk_size=len(chunk)
        ):
            self._stream(self._skeleton, chunk, sign)
            self._n_rows += sign * len(chunk)
            if sign > 0:
                self._deepen_frontiers()
            report = self._finalize()
        return self._record(operation, len(chunk), start, report)

    def _deepen_frontiers(self) -> None:
        """Convert over-grown frontier families into mini-BOAT subtrees.

        A frontier family keeps absorbing inserts; once it clearly exceeds
        the in-memory regime, growing a skeleton over it moves most of its
        tuples into held stores and certain-leaf sub-frontiers, keeping
        later update passes cheap.  A watermark backs off retries when the
        bootstrap trees disagree at the family's root (instability), which
        would otherwise re-run the sampling phase on every update.
        """
        threshold = 2 * max(self._config.sample_size, self._config.inmemory_threshold)
        for node in list(self.skeleton.nodes()):
            if not node.is_frontier:
                continue
            size = len(node.family_store)
            if size <= threshold or size <= node.deepen_watermark:
                continue
            family = node.family_store.read_all()
            fresh = self._grow_skeleton(family, node.depth)
            if fresh.is_frontier:
                fresh.release()
                node.deepen_watermark = int(1.5 * size)
                continue
            node.release()
            self._swap(node, fresh)

    def _swap(self, old: BoatNode, fresh: BoatNode) -> None:
        parent = old.parent
        fresh.parent = parent
        if parent is None:
            self._skeleton = fresh
        elif parent.left is old:
            parent.left = fresh
        elif parent.right is old:
            parent.right = fresh
        else:  # pragma: no cover - defensive
            raise TreeStructureError("skeleton parent link broken")

    # -- finalization -------------------------------------------------------------

    def _finalize(self) -> FinalizeReport:
        finalizer = Finalizer(
            self._schema,
            self._method,
            self._split_config,
            keep_state=True,
            skeleton_rebuild=self._grow_skeleton,
            id_counter=self._ids,
            timed=self.tracer.enabled,
        )
        with self.tracer.span("finalize") as span:
            self._tree = finalizer.run(self._skeleton)
            self._tree.validate()
            span.set(
                confirmed_splits=finalizer.report.confirmed_splits,
                frontier_completions=finalizer.report.frontier_completions,
                rebuilds=finalizer.report.rebuilds,
                cache_hits=finalizer.report.cache_hits,
                **finalizer.report.layer_seconds,
            )
        if finalizer.new_root is not None:
            self._skeleton = finalizer.new_root
        return finalizer.report

    def add_listener(self, listener) -> None:
        """Register ``listener(tree)`` to run after every build/update.

        Listeners fire once finalization has produced the new exact tree
        — the hook a :class:`~repro.serve.ModelRegistry` uses to publish
        each maintained tree to live traffic (see
        :meth:`repro.serve.ModelRegistry.follow`).  Listener exceptions
        propagate to the updater: a failed publish should fail the update
        loudly, not serve stale predictions silently.
        """
        self._listeners.append(listener)

    def _record(
        self, operation: str, size: int, start: float, report: FinalizeReport
    ) -> UpdateReport:
        update = UpdateReport(
            operation=operation,
            chunk_size=size,
            wall_seconds=time.perf_counter() - start,
            finalize=report,
            drift=list(report.rebuild_reasons),
        )
        self.reports.append(update)
        self.drift.extend(update.drift)
        for listener in self._listeners:
            listener(self._tree)
        return update

    # -- skeleton (re)construction ------------------------------------------------

    def _frontier_node(self, depth: int) -> BoatNode:
        return BoatNode(
            next(self._node_ids),
            depth,
            None,
            self._schema,
            {},
            self._config,
            self._spill_dir,
            self._io,
        )

    def _grow_skeleton(
        self, family: np.ndarray, depth: int, force_frontier: bool = False
    ) -> BoatNode:
        """A fresh, fully populated skeleton subtree for ``family``.

        Small families become a single frontier node (the in-memory
        regime); larger ones get a mini-BOAT sampling phase so that
        subsequent updates in this region stay cheap.  ``force_frontier``
        is the finalizer's termination escape hatch.
        """
        if force_frontier or len(family) <= self._config.sample_size:
            node = self._frontier_node(depth)
        else:
            size = min(self._config.sample_size, len(family))
            idx = self._rng.choice(len(family), size=size, replace=False)
            result = sampling_phase(
                family[idx],
                self._schema,
                self._method,
                config_at_depth(self._split_config, depth),
                self._config,
                len(family),
                self._rng,
                self._spill_dir,
                self._io,
                tracer=self.tracer,
            )
            node = result.root
            for sub in node.nodes():
                sub.node_id = next(self._node_ids)
                sub.depth += depth
        self._stream(node, family, sign=1)
        return node

    def _stream(self, root: BoatNode, rows: np.ndarray, sign: int) -> None:
        """Route ``rows`` down ``root``'s skeleton batch by batch, applying.

        The compiled skeleton is reused while the skeleton keeps the same
        nodes; a rebuild or a deepened frontier brings new node objects
        (the cached plan holds the old ones, so their ids stay unique).
        """
        shape = tuple(map(id, root.nodes()))
        if self._plan is None or self._plan[0] != shape:
            self._plan = (shape, compile_skeleton(root, self._schema))
        plan = self._plan[1]
        step = self._config.batch_rows
        batches = (
            plan.deltas(rows[offset : offset + step], self._kernels)
            for offset in range(0, len(rows), step)
        )
        if sign > 0:
            for deltas in batches:
                apply_batch_delta(deltas)
        else:
            # One retraction for the whole chunk: a refused delete (a row
            # that was never inserted) then changes no count and no store.
            apply_batch_delta([d for deltas in batches for d in deltas], sign)

    # -- inspection ---------------------------------------------------------------------

    @property
    def tree(self) -> DecisionTree:
        """The current maintained tree (a snapshot; safe to keep)."""
        if self._tree is None:
            raise TreeStructureError("IncrementalBoat has not been built yet")
        return self._tree

    @property
    def schema(self) -> Schema:
        """The training schema (used by streaming front ends to validate)."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of training tuples currently represented."""
        return self._n_rows

    @property
    def skeleton(self) -> BoatNode:
        if self._skeleton is None:
            raise TreeStructureError("IncrementalBoat has not been built yet")
        return self._skeleton

    def stored_rows(self) -> int:
        """Total tuples across all skeleton stores (consistency checks)."""
        total = 0
        for node in self.skeleton.nodes():
            if node.held is not None:
                total += len(node.held)
            if node.family_store is not None:
                total += len(node.family_store)
        return total

    def materialize(self) -> np.ndarray:
        """Reassemble the complete current training multiset from stores."""
        return collect_family(self.skeleton, self._schema.empty(0), self._schema)

    def close(self) -> None:
        """Release every store held by the skeleton."""
        if self._skeleton is not None:
            self._skeleton.release()
