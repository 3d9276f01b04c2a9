"""The RainForest level-wise construction engine [GRG98].

RainForest algorithms grow the tree breadth-first: each level, they scan
the training database, route every tuple down the partial tree, and build
AVC-groups for the frontier nodes; split selection then runs on the
AVC-groups alone.  The family of algorithms differs in how the limited
AVC buffer is scheduled:

* **RF-Hybrid** — keeps whole AVC-*groups* in memory; when the frontier's
  combined groups exceed the buffer, the frontier is partitioned into
  fitting batches, each costing one extra scan of the level.
* **RF-Vertical** — schedules individual AVC-*sets* (node × attribute),
  allowing a single node whose group alone exceeds the buffer to be
  processed across several passes.  With the paper's smaller buffer this
  is the slowest family member.

Both produce exactly the reference tree: AVC-sets contain the same
integer counts the reference builder derives from the family, and all
candidate evaluations share :mod:`repro.splits.impurity`'s code path.

Like the paper's experiments (and BOAT, for fairness), nodes whose family
fits the in-memory threshold are finished by the in-memory builder: their
tuples are collected during the level's first pass at no extra scan cost.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import RainForestConfig, SplitConfig
from ..core.finalize import config_at_depth
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..splits.base import CategoricalSplit, NumericSplit, Split
from ..splits.categorical import best_categorical_split_from_counts
from ..splits.methods import ImpuritySplitSelection
from ..storage import CLASS_COLUMN, IOStats, Schema, Table, TupleStore
from ..tree import DecisionTree, Node, build_reference_tree
from .avc import (
    AVCGroup,
    CategoricalAVC,
    NumericAVC,
    categorical_avc_from_batch,
    numeric_avc_from_batch,
)

#: One unit of AVC work: (task, attribute index or None for "all").
_WorkUnit = tuple["_Task", int | None]


@dataclass
class LevelReport:
    """Per-level diagnostics."""

    level: int
    frontier_nodes: int
    passes: int
    inmemory_completions: int


@dataclass
class RainForestReport:
    """Diagnostics of one level-wise construction."""

    algorithm: str
    table_size: int
    levels: list[LevelReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    io: IOStats | None = None

    @property
    def total_passes(self) -> int:
        return sum(level.passes for level in self.levels)


@dataclass
class RainForestResult:
    tree: DecisionTree
    report: RainForestReport


class _Task:
    """A frontier node awaiting split selection."""

    __slots__ = (
        "node",
        "family_size",
        "class_counts",
        "group",
        "counts_done",
        "collect",
        "store",
    )

    def __init__(
        self, node: Node, family_size: int, class_counts: np.ndarray | None
    ):
        self.node = node
        self.family_size = family_size
        self.class_counts = class_counts
        self.group: AVCGroup | None = None
        #: Vertical scheduling: whether some earlier pass already counted
        #: this node's class labels (avoids double counting).
        self.counts_done = False
        self.collect = False
        self.store: TupleStore | None = None


def _entries_for(schema: Schema, family_size: int, attr_index: int) -> int:
    attr = schema[attr_index]
    if attr.is_numerical:
        return family_size
    return attr.domain_size * schema.n_classes


class _Policy:
    """Packs AVC work units into scan passes under the buffer budget."""

    def __init__(self, schema: Schema, buffer_entries: int):
        self._schema = schema
        self._buffer = buffer_entries

    def _pack(self, units: list[tuple[_WorkUnit, int]]) -> list[list[_WorkUnit]]:
        """First-fit pack (unit, cost) pairs into passes; oversized units
        get a pass of their own (the model cannot subdivide further)."""
        passes: list[list[_WorkUnit]] = []
        loads: list[int] = []
        for unit, cost in units:
            placed = False
            for i, load in enumerate(loads):
                if load + cost <= self._buffer:
                    passes[i].append(unit)
                    loads[i] += cost
                    placed = True
                    break
            if not placed:
                passes.append([unit])
                loads.append(cost)
        return passes


class HybridPolicy(_Policy):
    """RF-Hybrid: schedule whole AVC-groups."""

    name = "rf-hybrid"

    def plan(self, tasks: list[_Task]) -> list[list[_WorkUnit]]:
        units = []
        for task in tasks:
            cost = sum(
                _entries_for(self._schema, task.family_size, i)
                for i in range(self._schema.n_attributes)
            )
            units.append(((task, None), cost))
        return self._pack(units)


class VerticalPolicy(_Policy):
    """RF-Vertical: schedule individual AVC-sets (node x attribute)."""

    name = "rf-vertical"

    def plan(self, tasks: list[_Task]) -> list[list[_WorkUnit]]:
        units = []
        for task in tasks:
            for i in range(self._schema.n_attributes):
                cost = _entries_for(self._schema, task.family_size, i)
                units.append(((task, i), cost))
        return self._pack(units)


class LevelwiseBuilder:
    """Runs the level-wise schema of Figure 1 with a scheduling policy."""

    def __init__(
        self,
        table: Table,
        method: ImpuritySplitSelection,
        split_config: SplitConfig,
        rf_config: RainForestConfig,
        policy: _Policy,
        algorithm_name: str,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ):
        self._table = table
        self._schema = table.schema
        self._method = method
        self._impurity = method.impurity
        self._config = split_config
        self._rf = rf_config
        self._kernels = get_kernels(rf_config.kernel_backend)
        self._policy = policy
        self._ids = itertools.count()
        self._tracer = tracer
        self._report = RainForestReport(
            algorithm=algorithm_name, table_size=len(table)
        )

    def build(self) -> RainForestResult:
        start = time.perf_counter()
        io = self._table.io_stats
        io_before = io.snapshot() if io is not None else None
        k = self._schema.n_classes
        root = Node(next(self._ids), 0, np.zeros(k, dtype=np.int64))
        tree = DecisionTree(self._schema, root)
        frontier = [_Task(root, len(self._table), None)]
        level = 0
        with self._tracer.span(
            self._report.algorithm, table_size=len(self._table)
        ):
            while frontier:
                frontier = self._process_level(tree, frontier, level)
                level += 1
        tree.validate()
        self._report.wall_seconds = time.perf_counter() - start
        if io is not None and io_before is not None:
            self._report.io = io.delta_since(io_before)
        return RainForestResult(tree=tree, report=self._report)

    # -- one level ------------------------------------------------------------

    def _process_level(
        self, tree: DecisionTree, frontier: list[_Task], level: int
    ) -> list[_Task]:
        with self._tracer.span(f"level-{level}") as level_span:
            scan_tasks: list[_Task] = []
            inmemory = 0
            for task in frontier:
                if self._certain_leaf(task):
                    continue
                if (
                    0 < self._rf.inmemory_threshold
                    and task.family_size <= self._rf.inmemory_threshold
                ):
                    task.collect = True
                    task.store = TupleStore(
                        self._schema, io_stats=self._table.io_stats
                    )
                    inmemory += 1
                scan_tasks.append(task)
            if not scan_tasks:
                level_span.set(frontier_nodes=len(frontier), passes=0)
                return []
            plan = self._policy.plan(
                [task for task in scan_tasks if not task.collect]
            )
            if not plan:
                plan = [[]]
            for pass_index, units in enumerate(plan):
                # Collectors ride along on the first pass only.
                collectors = (
                    [task for task in scan_tasks if task.collect]
                    if pass_index == 0
                    else []
                )
                self._scan_pass(tree, units, collectors)
            self._report.levels.append(
                LevelReport(
                    level=level,
                    frontier_nodes=len(frontier),
                    passes=len(plan),
                    inmemory_completions=inmemory,
                )
            )
            level_span.set(
                frontier_nodes=len(frontier),
                passes=len(plan),
                inmemory_completions=inmemory,
            )
            next_frontier: list[_Task] = []
            for task in scan_tasks:
                if task.collect:
                    self._finish_inmemory(task)
                else:
                    next_frontier.extend(self._apply_split(tree, task))
            return next_frontier

    def _certain_leaf(self, task: _Task) -> bool:
        if task.class_counts is None:
            # Only the root starts without counts; it must be scanned
            # regardless so its leaf label can be determined.
            return False
        if task.family_size < self._config.min_samples_split:
            return True
        if (
            self._config.max_depth is not None
            and task.node.depth >= self._config.max_depth
        ):
            return True
        return np.count_nonzero(task.class_counts) <= 1

    def _scan_pass(
        self,
        tree: DecisionTree,
        units: list[_WorkUnit],
        collectors: list[_Task],
    ) -> None:
        """One full scan: route batches, update the scheduled AVC work."""
        # Prepare AVC structures for this pass.
        by_node: dict[int, list[_WorkUnit]] = {}
        for task, attr in units:
            if task.group is None:
                task.group = AVCGroup(self._schema, self._kernels)
            by_node.setdefault(task.node.node_id, []).append((task, attr))
        for task in collectors:
            by_node.setdefault(task.node.node_id, [])
        collector_ids = {task.node.node_id: task for task in collectors}
        unit_map: dict[int, tuple[_Task, list[int | None]]] = {}
        for task, attr in units:
            entry = unit_map.setdefault(task.node.node_id, (task, []))
            entry[1].append(attr)
        counting: dict[int, bool] = {}
        for node_id, (task, attrs) in unit_map.items():
            counting[node_id] = not task.counts_done and None not in attrs
            task.counts_done = True
        # A pass made purely of single-attribute AVC work reads the
        # RF-Vertical temporary projections: only the scheduled columns
        # (plus the attributes needed to route records down the partial
        # tree) are billed, not full records.
        attr_only = (
            not collectors
            and units
            and all(attr is not None for _, attr in units)
        )
        if attr_only:
            needed = {self._schema[attr].name for _, attr in units}
            needed.update(self._routing_attribute_names(tree))
            scan_iter = self._table.scan_columns(
                sorted(needed), self._rf.batch_rows
            )
        else:
            scan_iter = self._table.scan(self._rf.batch_rows)
        # One compiled-kernel snapshot for the whole pass: the partial
        # tree is frozen during a scan, so routing shares the serving
        # layer's flattened-array kernel (repro.serve.CompiledPredictor)
        # instead of re-walking Node objects per batch.
        router = tree.compile()
        for batch in scan_iter:
            leaf_ids = router.route(batch)
            for node_id in by_node:
                mask = leaf_ids == node_id
                if not mask.any():
                    continue
                rows = batch[mask]
                if node_id in collector_ids:
                    collector_ids[node_id].store.append(rows)
                    continue
                task, attrs = unit_map[node_id]
                if None in attrs:
                    task.group.update(rows)
                else:
                    self._update_partial(task, rows, attrs, counting[node_id])

    def _routing_attribute_names(self, tree: DecisionTree) -> set[str]:
        """Attributes referenced by any split of the partial tree."""
        return {
            self._schema[node.split.attribute_index].name
            for node in tree.internal_nodes()
        }

    def _update_partial(
        self,
        task: _Task,
        rows: np.ndarray,
        attrs: list[int | None],
        count_labels: bool,
    ) -> None:
        """Vertical mode: update only the scheduled AVC-sets (plus counts)."""
        labels = rows[CLASS_COLUMN]
        k = self._schema.n_classes
        group = task.group
        if count_labels:
            group.class_counts += self._kernels.class_histogram(labels, k)
        for index in attrs:
            attr = self._schema[index]
            column = rows[attr.name]
            if attr.is_numerical:
                fresh = numeric_avc_from_batch(column, labels, k, self._kernels)
            else:
                fresh = categorical_avc_from_batch(
                    column, labels, attr.domain_size, k, self._kernels
                )
            group.set_avc(index, group.avc_set(index).merge(fresh))

    def _finish_inmemory(self, task: _Task) -> None:
        family = task.store.read_all()
        task.store.clear()
        sub = build_reference_tree(
            family,
            self._schema,
            self._method,
            config_at_depth(self._config, task.node.depth),
        )
        self._graft_onto(task.node, sub.root)

    def _graft_onto(self, target: Node, built: Node) -> None:
        target.class_counts = built.class_counts
        if built.is_leaf:
            target.make_leaf()
            return
        left = Node(next(self._ids), target.depth + 1, built.left.class_counts)
        right = Node(next(self._ids), target.depth + 1, built.right.class_counts)
        target.make_internal(built.split, left, right)
        self._graft_onto(left, built.left)
        self._graft_onto(right, built.right)

    def _apply_split(self, tree: DecisionTree, task: _Task) -> list[_Task]:
        group = task.group
        task.node.class_counts = group.class_counts.copy()
        counts = group.class_counts
        if np.count_nonzero(counts) <= 1:
            return []
        decision = self._best_from_group(group)
        if decision is None:
            return []
        split, impurity_value, left_counts = decision
        node_imp = self._impurity.node_impurity(counts)
        if not impurity_value < node_imp:
            return []
        right_counts = counts - left_counts
        left = Node(next(self._ids), task.node.depth + 1, left_counts)
        right = Node(next(self._ids), task.node.depth + 1, right_counts)
        task.node.make_internal(split, left, right)
        return [
            _Task(left, int(left_counts.sum()), left_counts),
            _Task(right, int(right_counts.sum()), right_counts),
        ]

    def _best_from_group(
        self, group: AVCGroup
    ) -> tuple[Split, float, np.ndarray] | None:
        """Best split over all AVC-sets, with the reference tie-breaks."""
        total = group.class_counts
        best: tuple[float, Split, np.ndarray] | None = None
        for index, attr in enumerate(self._schema.attributes):
            avc = group.avc_set(index)
            found = self._best_for_set(avc, total, index)
            if found is None:
                continue
            if best is None or found[0] < best[0]:
                best = found
        if best is None:
            return None
        return best[1], best[0], best[2]

    def _best_for_set(
        self,
        avc: NumericAVC | CategoricalAVC,
        total: np.ndarray,
        index: int,
    ) -> tuple[float, Split, np.ndarray] | None:
        min_leaf = self._config.min_samples_leaf
        if isinstance(avc, CategoricalAVC):
            found = best_categorical_split_from_counts(
                avc.counts,
                self._impurity,
                min_leaf,
                self._config.max_categorical_exhaustive,
                kernels=self._kernels,
            )
            if found is None:
                return None
            left_counts = avc.counts[sorted(found[1])].sum(axis=0)
            return found[0], CategoricalSplit(index, found[1]), left_counts
        if len(avc.values) == 0:
            return None
        left_counts = np.cumsum(avc.counts, axis=0)
        impurities = self._kernels.weighted_impurity(
            self._impurity, left_counts, total
        )
        n_total = int(total.sum())
        n_left = left_counts.sum(axis=1)
        admissible = (
            (n_left >= min_leaf)
            & (n_total - n_left >= min_leaf)
            & ~np.isnan(avc.values)  # X <= NaN splits nothing off
        )
        if not admissible.any():
            return None
        masked = np.where(admissible, impurities, np.inf)
        pos = int(np.argmin(masked))
        return (
            float(masked[pos]),
            NumericSplit(index, float(avc.values[pos])),
            left_counts[pos],
        )


def build_rf_hybrid(
    table: Table,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    rf_config: RainForestConfig | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> RainForestResult:
    """RF-Hybrid: level-wise construction scheduling whole AVC-groups."""
    split_config = split_config or SplitConfig()
    rf_config = rf_config or RainForestConfig()
    policy = HybridPolicy(table.schema, rf_config.avc_buffer_entries)
    return LevelwiseBuilder(
        table, method, split_config, rf_config, policy, HybridPolicy.name, tracer
    ).build()


def build_rf_vertical(
    table: Table,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    rf_config: RainForestConfig | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> RainForestResult:
    """RF-Vertical: level-wise construction scheduling single AVC-sets."""
    split_config = split_config or SplitConfig()
    rf_config = rf_config or RainForestConfig()
    policy = VerticalPolicy(table.schema, rf_config.avc_buffer_entries)
    return LevelwiseBuilder(
        table, method, split_config, rf_config, policy, VerticalPolicy.name, tracer
    ).build()
