"""Maintenance-by-rebuild: exact streaming updates for any split method.

:class:`~repro.core.IncrementalBoat` is the paper's §4 maintainer — it
patches the optimistic skeleton and only rebuilds drifted subtrees.  Its
skeleton keeps integer statistics it can retract exactly, so it covers
every :class:`~repro.splits.ImpuritySplitSelection` but not QUEST, whose
per-node moments are float sums that deletes cannot retract exactly
(``IncrementalBoat`` refuses QUEST).  :class:`RebuildMaintainer` fills
that gap with the brute baseline the paper compares against: keep the
live training multiset in a (spillable) store and rebuild the tree from
scratch on every update.

It exposes the same maintainer protocol the streaming service consumes —
``insert``/``delete`` returning an :class:`~repro.core.UpdateReport`,
``tree``, ``schema``, ``n_rows``, ``stored_rows``, ``materialize``,
``add_listener``, ``close`` — so :class:`~repro.serve.ModelRegistry.follow`
and the maintenance loop treat both interchangeably.  Every update is an
exact from-scratch build, so equivalence with the reference tree is by
construction; what the property suite checks through this class is the
multiset bookkeeping (bitwise delete matching, order preservation).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable

import numpy as np

from ..config import SplitConfig
from ..core import UpdateReport
from ..core.finalize import FinalizeReport
from ..core.incremental import REPORT_HISTORY
from ..exceptions import TreeStructureError
from ..splits.base import SplitSelectionMethod
from ..storage import IOStats, Schema
from ..storage.spill import TupleStore
from ..tree import DecisionTree, build_reference_tree


class RebuildMaintainer:
    """A decision tree maintained by exact rebuild on every update."""

    def __init__(
        self,
        schema: Schema,
        build_fn: Callable[[np.ndarray], DecisionTree],
        spill_dir: str | None = None,
        memory_budget_rows: int = 1 << 20,
        io_stats: IOStats | None = None,
    ):
        self._schema = schema
        self._build_fn = build_fn
        self._store = TupleStore(
            schema, memory_budget_rows, spill_dir, io_stats
        )
        self._tree: DecisionTree | None = None
        self._listeners: list = []
        #: The most recent :data:`REPORT_HISTORY` update reports, oldest first.
        self.reports: deque[UpdateReport] = deque(maxlen=REPORT_HISTORY)

    @classmethod
    def from_chunk(
        cls,
        chunk: np.ndarray,
        schema: Schema,
        method: SplitSelectionMethod,
        split_config: SplitConfig | None = None,
        spill_dir: str | None = None,
    ) -> "RebuildMaintainer":
        """Start a rebuild-maintained tree for ``method`` (QUEST included)."""
        config = split_config or SplitConfig()
        maintainer = cls(
            schema,
            lambda rows: build_reference_tree(rows, schema, method, config),
            spill_dir=spill_dir,
        )
        maintainer.insert(chunk)
        return maintainer

    # -- updates --------------------------------------------------------------

    def insert(self, chunk: np.ndarray) -> UpdateReport:
        return self._update(chunk, "insert")

    def delete(self, chunk: np.ndarray) -> UpdateReport:
        return self._update(chunk, "delete")

    def _update(self, chunk: np.ndarray, operation: str) -> UpdateReport:
        self._schema.validate_batch(chunk)
        start = time.perf_counter()
        if operation == "insert":
            self._store.append(chunk)
        else:
            self._store.remove(chunk)
        rows = self._store.read_all()
        self._tree = self._build_fn(rows)
        self._tree.validate()
        report = UpdateReport(
            operation=operation,
            chunk_size=len(chunk),
            wall_seconds=time.perf_counter() - start,
            finalize=FinalizeReport(
                leaves=self._tree.n_leaves,
                rebuilds=1,
                rebuilt_tuples=len(rows),
                rebuild_reasons=["full rebuild (rebuild maintainer)"],
            ),
            drift=[],
        )
        self.reports.append(report)
        for listener in self._listeners:
            listener(self._tree)
        return report

    def add_listener(self, listener) -> None:
        """Register ``listener(tree)`` to run after every update."""
        self._listeners.append(listener)

    # -- inspection -----------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def tree(self) -> DecisionTree:
        if self._tree is None:
            raise TreeStructureError("RebuildMaintainer has no tree yet")
        return self._tree

    @property
    def n_rows(self) -> int:
        return len(self._store)

    def stored_rows(self) -> int:
        return len(self._store)

    def materialize(self) -> np.ndarray:
        return self._store.read_all()

    def close(self) -> None:
        self._store.clear()
