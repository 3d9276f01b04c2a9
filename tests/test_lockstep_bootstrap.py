"""Differential suite: the lock-step bootstrap ≡ one tree per repetition.

The sampling phase grows the ``b`` bootstrap trees of an impurity method
on the numpy backend as roots of level-synchronous grows over the
once-rank-presorted sample, stopped where the trees stop agreeing
(:func:`repro.tree.grower.grow_resamples`, ``_AgreementBound``).  The
oracle is the per-repetition loop the phase used before: materialize each
resample, grow its full reference tree, intersect.  Every case asserts the
skeleton — criteria, interval bounds, family estimates, discretization
edges (``tobytes()``) — and every ``SamplingReport`` field are identical.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat as boat_module
from repro.core import boat_build, sampling_phase
from repro.core import bootstrap as bootstrap_module
from repro.core.bootstrap import SamplingResult, _SkeletonBuilder
from repro.core.coarse import CoarseNumeric
from repro.datagen import AgrawalConfig, AgrawalGenerator, drifted_function_1
from repro.parallel import WorkerPool
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import CLASS_COLUMN, MemoryTable, bootstrap_resample
from repro.tree import build_reference_tree, tree_to_json

from .conftest import simple_xy_data

pytestmark = pytest.mark.kernels

ROWS = 800
REPETITIONS = 5
TABLE_SIZE = 10 * ROWS
#: Fires wherever the routed sample holds at most a third of D'.
FIRES_BELOW_ROOT = TABLE_SIZE // 3


def oracle_phase(sample, schema, method, split_config, boat_config, table_size, rng):
    """The per-repetition sampling phase: one full reference tree per resample."""
    subsample = boat_config.bootstrap_subsample or len(sample)
    entropy = int(rng.integers(0, np.iinfo(np.int64).max))
    children = np.random.SeedSequence(entropy).spawn(boat_config.bootstrap_repetitions)
    trees = [
        build_reference_tree(
            bootstrap_resample(sample, subsample, np.random.default_rng(child)),
            schema,
            method,
            split_config,
        )
        for child in children
    ]
    builder = _SkeletonBuilder(
        schema, method, split_config, boat_config, table_size, len(sample), None, None
    )
    root = builder.build([t.root for t in trees], sample, 0)
    return SamplingResult(root=root, report=builder.report)


def skeleton_signature(result: SamplingResult) -> list:
    """Every skeleton node's shape, criterion and edges, as exact bytes."""
    out = []
    for node in result.root.nodes():
        criterion = node.criterion
        if isinstance(criterion, CoarseNumeric):
            criterion = (
                criterion.attribute_index,
                criterion.low.hex(),
                criterion.high.hex(),
            )
        edges = sorted((i, e.dtype.str, e.tobytes()) for i, e in node.bucket_edges.items())
        out.append(
            (
                node.node_id,
                node.depth,
                node.left is None,
                criterion,
                node.estimated_family,
                edges,
            )
        )
    report = asdict(result.report)
    report["interval_widths"] = [w.hex() for w in report["interval_widths"]]
    out.append(report)
    return out


def assert_matches_oracle(sample, schema, method, split_config, boat_config, table_size):
    ours = sampling_phase(
        sample, schema, method, split_config, boat_config, table_size,
        np.random.default_rng(5),
    )
    oracle = oracle_phase(
        sample, schema, method, split_config, boat_config, table_size,
        np.random.default_rng(5),
    )
    assert skeleton_signature(ours) == skeleton_signature(oracle)
    return ours


def agrawal(function_id: int, n: int = ROWS, seed: int = 0):
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.05), seed=seed
    )
    return generator.generate(n), generator.schema


@pytest.mark.parametrize("inmemory", [0, FIRES_BELOW_ROOT])
@pytest.mark.parametrize("max_depth", [None, 2])
@pytest.mark.parametrize("split_sample_rows", [None, 300])
@pytest.mark.parametrize("subsample", [None, int(0.4 * ROWS)])
@pytest.mark.parametrize("impurity", ["gini", "entropy"])
@pytest.mark.parametrize("function_id", range(1, 11))
def test_skeleton_matches_per_repetition_oracle(
    function_id, impurity, subsample, split_sample_rows, max_depth, inmemory
):
    sample, schema = agrawal(function_id, seed=function_id)
    split_config = SplitConfig(
        min_samples_split=30,
        min_samples_leaf=5,
        max_depth=max_depth,
        split_sample_rows=split_sample_rows,
    )
    boat_config = BoatConfig(
        sample_size=ROWS,
        bootstrap_repetitions=REPETITIONS,
        bootstrap_subsample=subsample,
        inmemory_threshold=inmemory,
    )
    assert_matches_oracle(
        sample, schema, ImpuritySplitSelection(impurity), split_config,
        boat_config, TABLE_SIZE,
    )


@pytest.mark.parametrize("inmemory", [0, FIRES_BELOW_ROOT])
@pytest.mark.parametrize("per_grow", [1, 2])
@pytest.mark.parametrize("function_id", range(1, 11))
def test_grows_in_several_groups_match_oracle(monkeypatch, function_id, per_grow, inmemory):
    """Roots grown a few at a time (a large sample) bound each group by the
    groups before it; the skeleton must not change."""
    monkeypatch.setattr(bootstrap_module, "GROUP_ROWS", per_grow * ROWS)
    sample, schema = agrawal(function_id, seed=100 + function_id)
    assert_matches_oracle(
        sample, schema, ImpuritySplitSelection("gini"),
        SplitConfig(min_samples_split=30, min_samples_leaf=5),
        BoatConfig(
            sample_size=ROWS, bootstrap_repetitions=REPETITIONS,
            inmemory_threshold=inmemory,
        ),
        TABLE_SIZE,
    )


def _with_nan(sample):
    rng = np.random.default_rng(1)
    sample["salary"][rng.random(len(sample)) < 0.1] = np.nan
    sample["age"][rng.random(len(sample)) < 0.05] = np.nan
    return sample


def _with_signed_zeros(sample):
    rng = np.random.default_rng(2)
    picks = rng.integers(0, 4, len(sample))
    sample["commission"] = np.array([-0.0, 0.0, -1.0, 1.0])[picks]
    sample["hyears"] = np.where(rng.random(len(sample)) < 0.5, -0.0, 0.0)
    # The label follows the sign class, so the zeros sit at the split.
    sample[CLASS_COLUMN] = np.where(
        sample["commission"] > 0, 1, np.where(sample["age"] < 40, 0, 1)
    ).astype(np.int32)
    return sample


def _with_heavy_ties(sample):
    for name in ("salary", "age", "loan", "hvalue"):
        column = sample[name]
        sample[name] = np.round(column / (column.max() / 6))
    return sample


@pytest.mark.parametrize(
    "prepare", [_with_nan, _with_signed_zeros, _with_heavy_ties], ids=["nan", "zeros", "ties"]
)
@pytest.mark.parametrize("function_id", [1, 2, 7])
def test_special_values_match_oracle(prepare, function_id):
    sample, schema = agrawal(function_id, n=1200, seed=function_id)
    sample = prepare(sample)
    for split_sample_rows in (None, 300):
        assert_matches_oracle(
            sample, schema, ImpuritySplitSelection("gini"),
            SplitConfig(
                min_samples_split=30, min_samples_leaf=3,
                split_sample_rows=split_sample_rows,
            ),
            BoatConfig(sample_size=1200, bootstrap_repetitions=REPETITIONS),
            10 * 1200,
        )


def test_categorical_root_matches_oracle(small_schema):
    sample = simple_xy_data(small_schema, 1500, seed=4, rule="color")
    result = assert_matches_oracle(
        sample, small_schema, ImpuritySplitSelection("gini"),
        SplitConfig(min_samples_split=10, min_samples_leaf=2),
        BoatConfig(sample_size=1500, bootstrap_repetitions=8),
        15_000,
    )
    assert result.root.criterion.subset == frozenset({0, 2})


def test_bound_stops_below_the_skeleton():
    """The sampling phase grows only as deep as the trees agree."""
    sample, schema = agrawal(7, n=1500, seed=3)
    method = ImpuritySplitSelection("gini")
    split_config = SplitConfig(min_samples_split=50)
    boat_config = BoatConfig(sample_size=1500, bootstrap_repetitions=10)
    builder = _SkeletonBuilder(
        schema, method, split_config, boat_config, 6000, 1500, None, None
    )
    bounded = bootstrap_module.build_bootstrap_trees(
        sample, schema, method, split_config, boat_config,
        np.random.default_rng(0), skeleton=builder,
    )
    full = bootstrap_module.build_bootstrap_trees(
        sample, schema, method, split_config, boat_config, np.random.default_rng(0)
    )
    assert sum(t.n_nodes for t in bounded) < sum(t.n_nodes for t in full) // 3
    assert bootstrap_module._levels(bounded) < bootstrap_module._levels(full)


@pytest.mark.parametrize(
    "method",
    [ImpuritySplitSelection("gini"), QuestSplitSelection()],
    ids=["gini", "quest"],
)
def test_worker_pools_give_the_same_skeleton(method):
    sample, schema = agrawal(1, n=1000, seed=9)
    split_config = SplitConfig(min_samples_split=30, min_samples_leaf=5)
    signatures = []
    for n_workers, backend in [(1, "thread"), (2, "thread"), (1, "process"), (2, "process")]:
        boat_config = BoatConfig(
            sample_size=1000, bootstrap_repetitions=REPETITIONS,
            n_workers=n_workers, parallel_backend=backend,
        )
        with WorkerPool(boat_config.n_workers, boat_config.parallel_backend) as pool:
            result = sampling_phase(
                sample, schema, method, split_config, boat_config, 10_000,
                np.random.default_rng(5), pool=pool,
            )
        signatures.append(skeleton_signature(result))
    assert all(s == signatures[0] for s in signatures[1:])


@pytest.mark.parametrize("n_workers", [1, 2])
def test_quest_build_keeps_no_sample(monkeypatch, n_workers):
    """Once a QUEST build returns, nothing (no worker context) keeps its
    sampling phase's sample alive."""
    samples = []

    def spy(sample, *args, **kwargs):
        samples.append(weakref.ref(sample))
        return sampling_phase(sample, *args, **kwargs)

    monkeypatch.setattr(boat_module, "sampling_phase", spy)
    data, schema = agrawal(1, n=3000, seed=3)
    boat_config = BoatConfig(
        sample_size=600, bootstrap_repetitions=REPETITIONS,
        n_workers=n_workers, parallel_backend="thread",
    )
    boat_build(
        MemoryTable(schema, data), QuestSplitSelection(),
        SplitConfig(min_samples_split=30, min_samples_leaf=5), boat_config,
    )
    gc.collect()
    assert len(samples) == 1
    assert samples[0]() is None


def test_concurrent_per_repetition_bootstraps_are_independent():
    """Two threads growing QUEST bootstrap trees under different split
    configs each get exactly their isolated run's trees, round after round."""
    sample, schema = agrawal(1, n=600, seed=4)
    method = QuestSplitSelection()
    boat_config = BoatConfig(sample_size=600, bootstrap_repetitions=REPETITIONS)
    configs = [
        SplitConfig(min_samples_split=30, min_samples_leaf=5),
        SplitConfig(min_samples_split=120, min_samples_leaf=40, max_depth=3),
    ]

    def grow(split_config):
        trees = bootstrap_module.build_bootstrap_trees(
            sample, schema, method, split_config, boat_config,
            np.random.default_rng(0),
        )
        return [tree_to_json(tree) for tree in trees]

    isolated = [grow(config) for config in configs]
    assert isolated[0] != isolated[1]
    rounds = 8
    barrier = threading.Barrier(len(configs))
    results: list[list] = [[] for _ in configs]

    def run(i):
        for _ in range(rounds):
            barrier.wait()
            results[i].append(grow(configs[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, runs in enumerate(results):
        assert runs == [isolated[i]] * rounds


def _traced_peak(run) -> tuple[int, SamplingResult]:
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_phase_peak_within_per_repetition_path():
    """On a build_scan-shaped sample (10k rows of drifted F1, b = 10) the
    lock-step phase's traced peak is no higher than the per-repetition
    phase's."""
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=1, label_fn=drifted_function_1(70.0)), seed=7
    )
    sample, schema = generator.generate(10_000), generator.schema
    method = ImpuritySplitSelection("gini")
    split_config = SplitConfig(min_samples_split=1000)
    boat_config = BoatConfig(sample_size=10_000, bootstrap_repetitions=10)
    args = (sample, schema, method, split_config, boat_config, 500_000)
    oracle_peak, oracle = _traced_peak(
        lambda: oracle_phase(*args, np.random.default_rng(1))
    )
    peak, ours = _traced_peak(lambda: sampling_phase(*args, np.random.default_rng(1)))
    assert skeleton_signature(ours) == skeleton_signature(oracle)
    assert peak <= oracle_peak, (peak, oracle_peak)
