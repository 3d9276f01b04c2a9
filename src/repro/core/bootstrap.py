"""BOAT's sampling phase (§3.2): bootstrapped coarse splitting criteria.

From the in-memory sample D' we grow ``b`` bootstrap trees (resampling D'
with replacement) and intersect them top-down:

* all ``b`` trees must split the node on the same attribute — otherwise
  the node becomes a *frontier* node (its subtree is completed in-memory
  during finalization);
* a categorical attribute additionally requires all ``b`` splitting
  subsets to be identical (the paper's stringent treatment — subtrees
  below differing subsets are incomparable);
* a numerical attribute yields a confidence interval spanning the ``b``
  bootstrap split points, widened by a configurable fraction.

Only the positions where all ``b`` trees agree are ever read, so impurity
methods on the numpy backend grow the ``b`` trees in lock-step, as roots
of level-wise grows over the once-presorted sample, and stop expanding a
position as soon as the trees stop agreeing there (:class:`_AgreementBound`).

The intersection simultaneously routes D' down the skeleton to build, at
every node, the adaptive discretizations for the Lemma 3.1 failure check
(:mod:`repro.core.discretize`) — many buckets where the sample impurity
profile flirts with the minimum, few elsewhere.

QUEST (§5) runs the same bootstrap and intersection.  Its finalization
recomputes the decision from sufficient statistics instead of bounding
impurities, so QUEST nodes get no sample profiles, interval extension
or bucket edges; their internal nodes accumulate per-class moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import SplitSelectionError
from ..kernels import DEFAULT_KERNELS
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..parallel import WorkerPool, chunked
from ..splits.base import CategoricalSplit, NumericSplit
from ..splits.categorical import best_categorical_split
from ..splits.numeric import numeric_profile
from ..splits.quest import QuestSplitSelection
from ..storage import CLASS_COLUMN, IOStats, Schema, bootstrap_indices, bootstrap_resample
from ..tree import DecisionTree, Node, build_reference_tree
from ..tree.builder import _grows_levelwise
from ..tree.grower import grow_resamples, rank_columns
from .coarse import CoarseCategorical, CoarseNumeric
from .discretize import build_discretization, interval_forced_edges
from .state import BoatMethod, BoatNode, require_boat_method


@dataclass
class SamplingReport:
    """Diagnostics of one sampling phase."""

    sample_size: int = 0
    bootstrap_repetitions: int = 0
    skeleton_nodes: int = 0
    frontier_nodes: int = 0
    attribute_disagreements: int = 0
    subset_disagreements: int = 0
    interval_widths: list[float] = field(default_factory=list)


@dataclass
class SamplingResult:
    """The skeleton with coarse criteria, plus diagnostics."""

    root: BoatNode
    report: SamplingReport


class _SkeletonBuilder:
    def __init__(
        self,
        schema: Schema,
        method: BoatMethod,
        split_config: SplitConfig,
        boat_config: BoatConfig,
        table_size: int,
        sample_size: int,
        spill_dir: str | None,
        io_stats: IOStats | None,
    ):
        self._schema = schema
        self._method = method
        self._quest = isinstance(method, QuestSplitSelection)
        self._split_config = split_config
        self._config = boat_config
        self._table_size = table_size
        self._sample_size = max(sample_size, 1)
        self._spill_dir = spill_dir
        self._io_stats = io_stats
        self._next_id = 0
        self.report = SamplingReport(
            sample_size=sample_size,
            bootstrap_repetitions=boat_config.bootstrap_repetitions,
        )

    def _allocate_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def build(self, nodes: list[Node], sample_family: np.ndarray, depth: int) -> BoatNode:
        self.report.skeleton_nodes += 1
        criterion, disagreement = self._agree(nodes, depth)
        if disagreement == "attribute":
            self.report.attribute_disagreements += 1
        elif disagreement == "subset":
            self.report.subset_disagreements += 1
        estimated = self._estimate(len(sample_family))
        if criterion is not None and self._in_memory(estimated):
            criterion = None
        if criterion is None:
            self.report.frontier_nodes += 1
            return BoatNode(
                self._allocate_id(),
                depth,
                None,
                self._schema,
                {},
                self._config,
                self._spill_dir,
                self._io_stats,
                estimated,
            )
        edges: dict[int, np.ndarray] = {}
        if not self._quest:
            profiles, best_estimate = self._profiles(sample_family)
            if isinstance(criterion, CoarseNumeric):
                criterion = self._extend_interval(
                    criterion, profiles, best_estimate, sample_family
                )
            edges = self._edges(profiles, criterion, best_estimate)
        if isinstance(criterion, CoarseNumeric):
            self.report.interval_widths.append(criterion.high - criterion.low)
        boat_node = BoatNode(
            self._allocate_id(),
            depth,
            criterion,
            self._schema,
            edges,
            self._config,
            self._spill_dir,
            self._io_stats,
            estimated,
            moments=self._quest,
        )
        go_left = self._route_mask(sample_family, criterion, nodes)
        boat_node.left = self.build(
            [n.left for n in nodes], sample_family[go_left], depth + 1
        )
        boat_node.right = self.build(
            [n.right for n in nodes], sample_family[~go_left], depth + 1
        )
        boat_node.left.parent = boat_node
        boat_node.right.parent = boat_node
        return boat_node

    def _agree(
        self, nodes: list[Node], depth: int
    ) -> tuple[CoarseNumeric | CoarseCategorical | None, str | None]:
        """The coarse criterion if all bootstrap trees agree, else None.

        The second item names a disagreement between splitting nodes:
        ``"attribute"`` (attribute or split type) or ``"subset"``.
        """
        if any(n.is_leaf for n in nodes):
            return None, None
        if (
            self._split_config.max_depth is not None
            and depth >= self._split_config.max_depth
        ):
            return None, None
        splits = [n.split for n in nodes]
        first = splits[0]
        if any(
            s.attribute_index != first.attribute_index or type(s) is not type(first)
            for s in splits
        ):
            return None, "attribute"
        if isinstance(first, CategoricalSplit):
            if any(s.subset != first.subset for s in splits):
                return None, "subset"
            return CoarseCategorical(first.attribute_index, first.subset), None
        values = np.array([s.value for s in splits], dtype=np.float64)
        low = float(values.min())
        high = float(values.max())
        pad = self._config.interval_widening * (high - low)
        return CoarseNumeric(first.attribute_index, low - pad, high + pad), None

    def _estimate(self, sample_rows: int) -> int:
        """|D| share of a node whose sample family has ``sample_rows`` rows."""
        return int(round(sample_rows / self._sample_size * self._table_size))

    def _in_memory(self, estimated: int) -> bool:
        """Whether the in-memory switch finishes a family of this size."""
        threshold = self._config.inmemory_threshold
        return 0 < threshold and estimated <= threshold

    def _route_mask(
        self,
        sample_family: np.ndarray,
        criterion: CoarseNumeric | CoarseCategorical,
        nodes: list[Node],
    ) -> np.ndarray:
        """Go-left mask for routing D' down the skeleton.

        Numeric skeleton nodes route by the *median* bootstrap split point
        — any representative inside the interval works; it only shapes the
        discretizations of descendants, never correctness.
        """
        if isinstance(criterion, CoarseCategorical):
            return criterion.go_left(sample_family, self._schema)
        values = np.sort(
            np.array([n.split.value for n in nodes], dtype=np.float64)
        )
        median = float(values[len(values) // 2])
        column = sample_family[self._schema[criterion.attribute_index].name]
        return column <= median

    def _profiles(
        self, sample_family: np.ndarray
    ) -> tuple[dict[int, "object"], float]:
        """Sample impurity profiles per numeric attribute + best estimate.

        The best estimate spans *all* attributes (categorical included) —
        it anchors both the adaptive interval widening and the boundary
        placement weights.
        """
        impurity = self._method.impurity
        kernels = getattr(self._method, "kernels", DEFAULT_KERNELS)
        labels = sample_family[CLASS_COLUMN]
        k = self._schema.n_classes
        min_leaf = self._split_config.min_samples_leaf
        profiles: dict[int, object] = {}
        best_estimate = np.inf
        for index, attr in enumerate(self._schema.attributes):
            column = sample_family[attr.name]
            if attr.is_numerical:
                profile = numeric_profile(
                    column, labels, k, impurity, min_leaf, kernels=kernels
                )
                profiles[index] = profile
                found = profile.best()
                if found is not None and found[0] < best_estimate:
                    best_estimate = found[0]
            else:
                found = best_categorical_split(
                    column,
                    labels,
                    attr.domain_size,
                    k,
                    impurity,
                    min_leaf,
                    self._split_config.max_categorical_exhaustive,
                    kernels=kernels,
                )
                if found is not None and found[0] < best_estimate:
                    best_estimate = found[0]
        if not np.isfinite(best_estimate):
            best_estimate = 0.0
        return profiles, best_estimate

    def _extend_interval(
        self,
        criterion: CoarseNumeric,
        profiles: dict[int, "object"],
        best_estimate: float,
        sample_family: np.ndarray,
    ) -> CoarseNumeric:
        """Widen the interval over the sample profile's near-minimum plateau.

        Candidates whose sample impurity sits within
        ``interval_impurity_slack * (node impurity - best)`` of the best
        are exactly the ones the corner bound cannot separate from i'
        later; holding them costs memory but prevents false-alarm
        rebuilds on flat impurity plateaus.
        """
        profile = profiles.get(criterion.attribute_index)
        if profile is None or profile.n_candidates == 0:
            return criterion
        impurity = self._method.impurity
        counts = np.bincount(
            sample_family[CLASS_COLUMN], minlength=self._schema.n_classes
        )
        node_imp = impurity.node_impurity(counts)
        slack = self._config.interval_impurity_slack * max(
            node_imp - best_estimate, 0.0
        )
        close = profile.admissible & (profile.impurities <= best_estimate + slack)
        if not close.any():
            return criterion
        values = profile.candidates[close]
        return CoarseNumeric(
            criterion.attribute_index,
            min(criterion.low, float(values.min())),
            max(criterion.high, float(values.max())),
        )

    def _edges(
        self,
        profiles: dict[int, "object"],
        criterion: CoarseNumeric | CoarseCategorical,
        best_estimate: float,
    ) -> dict[int, np.ndarray]:
        """Discretization edges for every numerical attribute at this node."""
        edges: dict[int, np.ndarray] = {}
        for index, profile in profiles.items():
            forced: tuple[float, ...] = ()
            exclude: tuple[float, float] | None = None
            if (
                isinstance(criterion, CoarseNumeric)
                and index == criterion.attribute_index
            ):
                forced = interval_forced_edges(criterion.low, criterion.high)
                exclude = (criterion.low, criterion.high)
            edges[index] = build_discretization(
                profile,
                best_estimate,
                self._config.bucket_budget,
                forced,
                exclude,
            )
        return edges


#: Virtual rows one lock-step grow takes on: roots are grown in groups of
#: at most this many rows (a larger root alone).  A grow peaks at about
#: 220 traced bytes per virtual row; at this size the phase's peak stays
#: below the per-repetition path's on 10k-row samples and below
#: finalization's on a deep 1.5k-row build, so the build's peak does not rise.
GROUP_ROWS = 1 << 13


class _AgreementBound:
    """Stops one group's lock-step bootstrap grow where the skeleton stops.

    A *position* is one node per bootstrap tree, reached by the same path
    from the roots.  :meth:`_SkeletonBuilder.build` recurses below a
    position only if all ``b`` nodes split, on the same attribute and
    split type (and categorical subset), and the in-memory switch does
    not fire on the sample D' routed there by the median split.

    Groups grow one after another.  A position is expanded when this
    group's nodes and the ``earlier`` groups' nodes there all agree; the
    ``final`` group also applies the in-memory switch, whose median needs
    all ``b`` splits.  So every group expands every position the builder
    visits (earlier groups possibly a few more), and the builder reads
    the same splits there as below an unbounded grow.
    """

    def __init__(
        self,
        builder: _SkeletonBuilder,
        sample: np.ndarray,
        earlier: list[DecisionTree],
        size: int,
        final: bool,
    ):
        self._builder = builder
        self._earlier = earlier
        self._size = size
        # id(node) -> its path (0 = left, 1 = right); roots are at ().
        self._paths: dict[int, tuple[int, ...]] = {}
        # The routed sample per open position, kept only when the
        # in-memory switch can fire.
        in_memory = final and builder._config.inmemory_threshold > 0
        self._families = {(): sample} if in_memory else None

    def __call__(self, split: list[Node]) -> np.ndarray:
        positions: dict[tuple[int, ...], list[int]] = {}
        for i, node in enumerate(split):
            path = self._paths.pop(id(node), ())
            positions.setdefault(path, []).append(i)
        keep = np.zeros(len(split), dtype=bool)
        families = {}
        for path, members in positions.items():
            if len(members) < self._size:
                continue  # some tree of this group has a leaf here
            group = [split[i] for i in members]
            nodes = [_walk(tree.root, path) for tree in self._earlier] + group
            criterion, _ = self._builder._agree(nodes, len(path))
            if criterion is None:
                continue
            if self._families is not None:
                family = self._families[path]
                if self._builder._in_memory(self._builder._estimate(len(family))):
                    continue
                go_left = self._builder._route_mask(family, criterion, nodes)
                families[path + (0,)] = family[go_left]
                families[path + (1,)] = family[~go_left]
            keep[members] = True
            for node in group:
                self._paths[id(node.left)] = path + (0,)
                self._paths[id(node.right)] = path + (1,)
        if self._families is not None:
            self._families = families
        return keep


def _walk(node: Node, path: tuple[int, ...]) -> Node:
    for step in path:
        node = node.right if step else node.left
    return node


def build_bootstrap_trees(
    sample: np.ndarray,
    schema: Schema,
    method: BoatMethod,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    rng: np.random.Generator,
    pool: WorkerPool | None = None,
    skeleton: _SkeletonBuilder | None = None,
) -> list[DecisionTree]:
    """Grow the ``b`` bootstrap trees.

    One entropy value is drawn from ``rng`` and expanded into ``b``
    :class:`~numpy.random.SeedSequence` children, one per repetition, so
    every repetition's resample is a pure function of (sample, child).

    Impurity methods on the numpy backend grow all ``b`` trees as roots of
    level-synchronous grows (:func:`repro.tree.grower.grow_resamples`)
    over the once-presorted sample, :data:`GROUP_ROWS` virtual rows at a
    time, on the calling thread.  The sampling phase passes its
    ``skeleton`` builder to stop those grows where the skeleton stops
    (:class:`_AgreementBound`); without it every tree is grown in full.

    Every other method (QUEST, the ``python`` oracle backend, subclasses
    with their own ``choose_split``) grows one tree per repetition
    (:func:`grow_repetitions`), optionally on ``pool``.  Each task carries
    everything it reads, so the serial path and every pool backend
    produce bit-identical trees; a pool merely changes where the work
    runs.
    """
    subsample = boat_config.bootstrap_subsample or len(sample)
    repetitions = boat_config.bootstrap_repetitions
    entropy = int(rng.integers(0, np.iinfo(np.int64).max))
    children = np.random.SeedSequence(entropy).spawn(repetitions)
    kernels = getattr(method, "kernels", DEFAULT_KERNELS)
    if _grows_levelwise(method, kernels):
        per_grow = max(1, GROUP_ROWS // subsample)
        ranks = rank_columns(sample, schema)
        trees: list[DecisionTree] = []
        for lo in range(0, repetitions, per_grow):
            group = children[lo : lo + per_grow]
            draws = [
                bootstrap_indices(len(sample), subsample, np.random.default_rng(child))
                for child in group
            ]
            bound = None
            if skeleton is not None:
                final = lo + per_grow >= repetitions
                bound = _AgreementBound(skeleton, sample, trees, len(group), final)
            trees += grow_resamples(
                sample, ranks, draws, schema, method.impurity, kernels,
                split_config, bound,
            )
        return trees
    task = (sample, schema, method, split_config, subsample)
    if pool is None or not pool.is_parallel:
        return grow_repetitions(task + (children,))
    # ~2 chunks per worker balances load against per-task overhead.
    chunk_size = max(1, -(-repetitions // (pool.n_workers * 2)))
    parts = pool.map(
        grow_repetitions, [task + (part,) for part in chunked(children, chunk_size)]
    )
    return [tree for part in parts for tree in part]


def grow_repetitions(task: tuple) -> list[DecisionTree]:
    """Grow one bootstrap tree per seed child, the per-repetition bootstrap.

    ``task`` is (sample, schema, method, split config, subsample, seed
    children): everything the task reads, so it runs unchanged on any
    pool backend and keeps no state between calls.  Each repetition's
    generator is seeded from its own deterministically spawned
    :class:`~numpy.random.SeedSequence` child, so the resample — and
    therefore the tree — depends only on the child, never on which
    worker ran it or in what order.  A process pool pickles the returned
    trees, which keeps their split points bit for bit.
    """
    sample, schema, method, split_config, subsample, children = task
    return [
        build_reference_tree(
            bootstrap_resample(sample, subsample, np.random.default_rng(child)),
            schema,
            method,
            split_config,
        )
        for child in children
    ]


def _levels(trees: list[DecisionTree]) -> int:
    """Depth levels at which at least one bootstrap node split."""
    deepest = -1
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                deepest = max(deepest, node.depth)
                stack += (node.left, node.right)
    return deepest + 1


def sampling_phase(
    sample: np.ndarray,
    schema: Schema,
    method: BoatMethod,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    table_size: int,
    rng: np.random.Generator,
    spill_dir: str | None = None,
    io_stats: IOStats | None = None,
    pool: WorkerPool | None = None,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> SamplingResult:
    """Run the sampling phase: bootstrap trees → skeleton with coarse criteria.

    Args:
        sample: the in-memory sample D'.
        table_size: |D|, used to estimate family sizes for the in-memory
            switch.
        rng: drives the bootstrap seeding only.
        pool: optional worker pool for growing per-repetition bootstrap
            trees concurrently (see :func:`build_bootstrap_trees` for the
            methods it applies to).  The output is identical with or
            without it.
        tracer: records the ``bootstrap`` (tree growing) and ``coarse``
            (skeleton intersection) spans.
    """
    require_boat_method(method)
    if len(sample) == 0:
        raise SplitSelectionError("cannot run the sampling phase on an empty sample")
    builder = _SkeletonBuilder(
        schema,
        method,
        split_config,
        boat_config,
        table_size,
        len(sample),
        spill_dir,
        io_stats,
    )
    with tracer.span(
        "bootstrap",
        repetitions=boat_config.bootstrap_repetitions,
        sample_rows=len(sample),
    ) as bootstrap_span:
        trees = build_bootstrap_trees(
            sample, schema, method, split_config, boat_config, rng, pool, builder
        )
        bootstrap_span.set(levels=_levels(trees))
    with tracer.span("coarse") as coarse_span:
        root = builder.build([t.root for t in trees], sample, 0)
        coarse_span.set(
            skeleton_nodes=builder.report.skeleton_nodes,
            frontier_nodes=builder.report.frontier_nodes,
            attribute_disagreements=builder.report.attribute_disagreements,
            subset_disagreements=builder.report.subset_disagreements,
        )
    return SamplingResult(root=root, report=builder.report)
