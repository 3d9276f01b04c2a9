"""An sklearn-style estimator facade over the BOAT machinery.

:class:`BoatClassifier` wraps table handling, algorithm selection and
tree maintenance behind the ``fit`` / ``predict`` / ``score`` interface
most Python users expect, while keeping the library's distinguishing
features reachable: out-of-core tables, exactness reports, incremental
``partial_fit`` (insertions) and ``forget`` (deletions).

The facade is intentionally thin — anything advanced should use the
underlying modules directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BoatConfig, SplitConfig
from .core import IncrementalBoat, boat_build
from .exceptions import ReproError, SchemaError, TreeStructureError
from .splits import ImpuritySplitSelection
from .storage import CLASS_COLUMN, MemoryTable, Schema, Table
from .tree import DecisionTree


@dataclass
class FitReport:
    """What happened during the last (re)fit or update."""

    mode: str
    rebuilds: int
    scans_hint: str


class BoatClassifier:
    """Decision tree classifier built (and maintained) with BOAT.

    Args:
        schema: the training schema (structured-array layout).
        impurity: split selection impurity ("gini", "entropy",
            "interclass_variance").
        min_samples_split / min_samples_leaf / max_depth: stopping rules.
        sample_size / bootstrap_repetitions: BOAT sampling-phase knobs.
        incremental: maintain per-node state so :meth:`partial_fit` and
            :meth:`forget` work; costs memory proportional to the held
            tuples and frontier families.
        seed: BOAT randomness (never affects the fitted tree).
    """

    def __init__(
        self,
        schema: Schema,
        impurity: str = "gini",
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_depth: int | None = None,
        sample_size: int = 20_000,
        bootstrap_repetitions: int = 20,
        incremental: bool = False,
        seed: int = 42,
    ):
        self.schema = schema
        self._method = ImpuritySplitSelection(impurity)
        self._split_config = SplitConfig(
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
        )
        self._boat_config = BoatConfig(
            sample_size=sample_size,
            bootstrap_repetitions=bootstrap_repetitions,
            seed=seed,
        )
        self._incremental = incremental
        self._tree: DecisionTree | None = None
        self._maintainer: IncrementalBoat | None = None
        self.last_report: FitReport | None = None

    # -- fitting --------------------------------------------------------------

    def fit(self, data: np.ndarray | Table) -> "BoatClassifier":
        """Fit from a structured array or any :class:`Table`."""
        table = self._as_table(data)
        if self._incremental:
            self._maintainer = IncrementalBoat.build(
                table, self._method, self._split_config, self._boat_config
            )
            self._tree = self._maintainer.tree
            finalize = self._maintainer.reports[-1].finalize
            self.last_report = FitReport(
                mode="incremental-build",
                rebuilds=finalize.rebuilds,
                scans_hint="2 scans (sample + cleanup)",
            )
        else:
            result = boat_build(
                table, self._method, self._split_config, self._boat_config
            )
            self._tree = result.tree
            finalize = result.report.finalize
            self.last_report = FitReport(
                mode=result.report.mode,
                rebuilds=finalize.rebuilds if finalize else 0,
                scans_hint="2 scans (sample + cleanup)"
                if result.report.mode == "boat"
                else "1 in-memory pass",
            )
        return self

    def partial_fit(self, chunk: np.ndarray) -> "BoatClassifier":
        """Incorporate new training tuples (incremental mode only)."""
        maintainer = self._require_maintainer("partial_fit")
        report = maintainer.insert(np.asarray(chunk))
        self._tree = maintainer.tree
        self.last_report = FitReport(
            mode="insert",
            rebuilds=report.finalize.rebuilds,
            scans_hint="one pass over the chunk",
        )
        return self

    def forget(self, chunk: np.ndarray) -> "BoatClassifier":
        """Remove previously inserted tuples (incremental mode only)."""
        maintainer = self._require_maintainer("forget")
        report = maintainer.delete(np.asarray(chunk))
        self._tree = maintainer.tree
        self.last_report = FitReport(
            mode="delete",
            rebuilds=report.finalize.rebuilds,
            scans_hint="one pass over the chunk",
        )
        return self

    # -- inference -----------------------------------------------------------

    def predict(self, data: np.ndarray) -> np.ndarray:
        return self.tree_.predict(self._validate_inference_batch(data, "predict"))

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        return self.tree_.predict_proba(
            self._validate_inference_batch(data, "predict_proba")
        )

    def score(self, data: np.ndarray) -> float:
        """Accuracy on labeled data (1 - misclassification rate)."""
        return 1.0 - self.tree_.misclassification_rate(
            self._validate_inference_batch(data, "score")
        )

    def _validate_inference_batch(
        self, data: np.ndarray, operation: str
    ) -> np.ndarray:
        """Check an inference input against the schema, naming what's wrong.

        Structured arrays must carry every predictor column with the
        schema's dtype (the class-label column is optional for
        ``predict``/``predict_proba`` inputs); anything else — plain
        float arrays, ``np.array([])``, missing or mistyped columns —
        raises :class:`SchemaError` up front instead of surfacing as a
        numpy indexing error deep in the tree walk.
        """
        array = np.asarray(data)
        expected = self.schema.dtype()
        names = array.dtype.names
        if names is None:
            detail = (
                "an empty untyped array" if array.size == 0
                else f"dtype {array.dtype}"
            )
            raise SchemaError(
                f"{operation}: input must be a structured array over the "
                f"training schema (got {detail}); build batches with "
                f"Schema.empty() or Schema.dtype()"
            )
        for attr in self.schema:
            if attr.name not in names:
                raise SchemaError(
                    f"{operation}: input is missing column {attr.name!r} "
                    f"(expected {expected[attr.name]})"
                )
            got = array.dtype[attr.name]
            if got != expected[attr.name]:
                raise SchemaError(
                    f"{operation}: column {attr.name!r} has dtype {got}, "
                    f"expected {expected[attr.name]}"
                )
        if operation == "score" and CLASS_COLUMN not in names:
            raise SchemaError(
                f"score: input is missing the label column {CLASS_COLUMN!r}"
            )
        return array

    @property
    def tree_(self) -> DecisionTree:
        if self._tree is None:
            raise TreeStructureError("classifier is not fitted")
        return self._tree

    def as_registry(self):
        """A :class:`~repro.serve.ModelRegistry` serving this classifier.

        Incremental classifiers get a registry that *follows* the
        maintainer: every :meth:`partial_fit` / :meth:`forget` publishes
        the new exact tree to live traffic atomically.  Batch-mode
        classifiers get a registry holding the fitted tree; republish by
        calling :meth:`~repro.serve.ModelRegistry.publish` after a refit.
        """
        from .serve import ModelRegistry

        registry = ModelRegistry()
        if self._maintainer is not None:
            registry.follow(self._maintainer)
        else:
            registry.publish(self.tree_)
        return registry

    @property
    def drift_log(self) -> list[str]:
        """Drift reports of recent incremental updates, oldest first.

        Bounded: the maintainer keeps the drift lines of its most recent
        updates only (:data:`repro.core.incremental.REPORT_HISTORY`
        lines), so a long-lived classifier does not grow without limit.
        """
        if self._maintainer is None:
            return []
        return list(self._maintainer.drift)

    # -- helpers ---------------------------------------------------------------

    def _as_table(self, data: np.ndarray | Table) -> Table:
        if isinstance(data, Table):
            if data.schema != self.schema:
                raise ReproError("table schema does not match the classifier's")
            return data
        array = np.asarray(data)
        if array.dtype != self.schema.dtype():
            raise ReproError(
                "array dtype does not match the schema; build batches with "
                "Schema.empty() or pass a Table"
            )
        return MemoryTable(self.schema, array)

    def _require_maintainer(self, operation: str) -> IncrementalBoat:
        if not self._incremental:
            raise ReproError(
                f"{operation} needs incremental=True at construction"
            )
        if self._maintainer is None:
            raise TreeStructureError("classifier is not fitted")
        return self._maintainer
