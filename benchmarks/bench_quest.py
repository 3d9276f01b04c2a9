"""§5: BOAT instantiated with a non-impurity split selection method (QUEST).

Compares BOAT-QUEST (two scans: sampling + cleanup, sufficient statistics
verified exactly) against the one-scan-per-level QUEST baseline.
Expected shape (asserted): BOAT-QUEST needs exactly two scans, the
level-wise baseline one per level, and the trees agree up to QUEST's
floating-point summation-order caveat.
"""

from __future__ import annotations

import pytest

from repro.bench import RunResult, WorkloadSpec, scaled
from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.rainforest import build_quest_levelwise
from repro.splits import QuestSplitSelection
from repro.tree import trees_equivalent

N_TUPLES = scaled(40_000)
SPLIT = SplitConfig(min_samples_split=400, min_samples_leaf=100, max_depth=8)
BOAT = BoatConfig(
    sample_size=max(N_TUPLES // 10, 2000),
    bootstrap_repetitions=12,
    bootstrap_subsample=max(N_TUPLES // 40, 1000),
    seed=23,
)


@pytest.mark.parametrize("function_id", [1, 6, 7])
def test_quest_boat_vs_levelwise(benchmark, function_id, workloads, collector):
    spec = WorkloadSpec(
        function_id=function_id, n_tuples=N_TUPLES, noise=0.05, seed=23
    )
    table = workloads.table(spec)
    io = table.io_stats
    holder = {}

    def once():
        io.reset()
        boat = boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        holder["boat"] = boat
        holder["boat_scans"] = io.full_scans
        holder["boat_seconds"] = boat.report.wall_seconds
        io.reset()
        levelwise = build_quest_levelwise(table, QuestSplitSelection(), SPLIT)
        holder["levelwise"] = levelwise
        holder["level_scans"] = io.full_scans

    benchmark.pedantic(once, rounds=1, iterations=1)
    boat = holder["boat"]
    levelwise = holder["levelwise"]
    assert holder["boat_scans"] == 2
    assert holder["level_scans"] == levelwise.report.levels
    assert holder["level_scans"] > 2
    boat_seconds = sum(holder["boat_seconds"].values())
    collector.add(
        "§5 non-impurity CL: BOAT-QUEST vs level-wise QUEST",
        "function",
        f"F{function_id}",
        RunResult(
            algorithm="BOAT-QUEST",
            workload=spec.describe(),
            n_tuples=N_TUPLES,
            wall_seconds=boat_seconds,
            scans=holder["boat_scans"],
            tuples_read=0,
            tree_nodes=boat.tree.n_nodes,
            tree_leaves=boat.tree.n_leaves,
        ),
    )
    collector.add(
        "§5 non-impurity CL: BOAT-QUEST vs level-wise QUEST",
        "function",
        f"F{function_id}",
        RunResult(
            algorithm="Levelwise-QUEST",
            workload=spec.describe(),
            n_tuples=N_TUPLES,
            wall_seconds=levelwise.report.wall_seconds,
            scans=holder["level_scans"],
            tuples_read=0,
            tree_nodes=levelwise.tree.n_nodes,
            tree_leaves=levelwise.tree.n_leaves,
        ),
    )


def test_quest_boat_matches_reference(benchmark, workloads):
    from repro.tree import build_reference_tree

    spec = WorkloadSpec(function_id=1, n_tuples=N_TUPLES, noise=0.05, seed=24)
    table = workloads.table(spec)
    holder = {}

    def once():
        holder["boat"] = boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        family = table.read_all()
        holder["reference"] = build_reference_tree(
            family, table.schema, QuestSplitSelection(), SPLIT
        )

    benchmark.pedantic(once, rounds=1, iterations=1)
    assert trees_equivalent(
        holder["boat"].tree, holder["reference"], rel_tol=1e-6
    )
