"""Tests for BOAT-QUEST (the non-impurity instantiation)."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import IncrementalBoat, boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import SplitSelectionError
from repro.recovery import resume_build
from repro.shard import sharded_boat_build
from repro.splits import QuestSplitSelection
from repro.storage import (
    DiskTable,
    IOStats,
    MemoryTable,
    ShardedTable,
    SqlTable,
    partition_table,
)
from repro.tree import (
    build_reference_tree,
    tree_to_json,
    trees_equal,
    trees_equivalent,
)

from .conftest import simple_xy_data

SPLIT = SplitConfig(min_samples_split=100, min_samples_leaf=25, max_depth=6)
BOAT = BoatConfig(
    sample_size=1500, bootstrap_repetitions=8, bootstrap_subsample=800, seed=5
)


class TestEquivalence:
    @pytest.mark.parametrize("rule", ["x", "xy", "color"])
    def test_matches_reference_up_to_float_order(self, small_schema, rule):
        data = simple_xy_data(small_schema, 6000, seed=10, rule=rule)
        table = MemoryTable(small_schema, data)
        result = boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        reference = build_reference_tree(
            data, small_schema, QuestSplitSelection(), SPLIT
        )
        assert trees_equivalent(result.tree, reference, rel_tol=1e-6)

    @pytest.mark.parametrize("fid", [1, 6, 7])
    def test_agrawal_workloads(self, fid):
        gen = AgrawalGenerator(AgrawalConfig(function_id=fid, noise=0.05), seed=fid)
        data = gen.generate(15000)
        table = MemoryTable(gen.schema, data)
        result = boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        reference = build_reference_tree(
            data, gen.schema, QuestSplitSelection(), SPLIT
        )
        assert trees_equivalent(result.tree, reference, rel_tol=1e-6)

    def test_two_scans(self, tmp_path):
        gen = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1), seed=9)
        data = gen.generate(12000)
        io = IOStats()
        table = DiskTable.create(tmp_path / "q.tbl", gen.schema, io)
        table.append(data)
        io.reset()
        boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        assert io.full_scans == 2


class TestDegenerate:
    def test_small_table_inmemory_switch(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=11, rule="x")
        table = MemoryTable(small_schema, data)
        result = boat_build(
            table, QuestSplitSelection(), SPLIT, BoatConfig(sample_size=1000)
        )
        reference = build_reference_tree(
            data, small_schema, QuestSplitSelection(), SPLIT
        )
        assert trees_equal(result.tree, reference)
        assert "in_memory_build" in result.report.wall_seconds

    def test_rejects_unknown_method(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=12)
        table = MemoryTable(small_schema, data)
        with pytest.raises(SplitSelectionError):
            boat_build(table, object(), SPLIT, BOAT)

    def test_report_populated(self, small_schema):
        data = simple_xy_data(small_schema, 5000, seed=13, rule="x")
        table = MemoryTable(small_schema, data)
        result = boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        report = result.report
        assert report.table_size == 5000
        assert report.sampling.skeleton_nodes >= 1
        assert set(report.wall_seconds) == {"sampling", "cleanup_scan", "finalize"}


def _agrawal_disk_table(path, n=12000, function_id=1, seed=9):
    gen = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=seed
    )
    table = DiskTable.create(path, gen.schema, IOStats())
    table.append(gen.generate(n))
    return table


class TestOnePipeline:
    """QUEST runs the shared sampling → cleanup → finalize pipeline."""

    def test_trees_identical_at_any_worker_count(self, tmp_path):
        # Parallel cleanup applies per-batch moment deltas in scan order
        # and finalization runs on the driving thread, so the float
        # accumulation order never depends on the pool.
        config = replace(BOAT, batch_rows=1024)
        with _agrawal_disk_table(tmp_path / "q.tbl") as table:
            baseline = tree_to_json(
                boat_build(table, QuestSplitSelection(), SPLIT, config).tree
            )
            for backend in ("thread", "process"):
                for workers in (1, 2, 4):
                    tree = boat_build(
                        table,
                        QuestSplitSelection(),
                        SPLIT,
                        replace(config, n_workers=workers, parallel_backend=backend),
                    ).tree
                    assert tree_to_json(tree) == baseline, (backend, workers)

    def test_phase_trace_counts_two_scans(self, tmp_path):
        with _agrawal_disk_table(tmp_path / "q.tbl") as table:
            table.io_stats.reset()
            result = boat_build(
                table, QuestSplitSelection(), SPLIT, replace(BOAT, trace=True)
            )
        trace = result.report.trace
        for phase in ("sample", "bootstrap", "coarse", "cleanup", "finalize"):
            assert trace.find(phase) is not None, phase
        assert trace.find("boat_build").full_scans == 2
        assert result.report.finalize is not None

    def test_internal_nodes_accumulate_moments(self, small_schema, monkeypatch):
        import repro.core.boat as boat_module

        data = simple_xy_data(small_schema, 6000, seed=14, rule="x")
        table = MemoryTable(small_schema, data)
        captured = {}
        original = boat_module.finalize_tree

        def spy(root, *args, **kwargs):
            captured["root"] = root
            return original(root, *args, **kwargs)

        monkeypatch.setattr(boat_module, "finalize_tree", spy)
        boat_build(table, QuestSplitSelection(), SPLIT, BOAT)
        root = captured["root"]
        assert not root.is_frontier
        # The root saw every row: its moments are the full-data sums.
        x = data["x"].astype(np.float64)
        labels = data["class_label"]
        for c in range(small_schema.n_classes):
            mine = x[labels == c]
            assert root.moments[0, 0, c] == pytest.approx(mine.sum())
            assert root.moments[1, 0, c] == pytest.approx((mine * mine).sum())


def _quest_entry(entry, tmp_path, spill_dir):
    """(the table ``entry`` reads, a thunk running ``entry`` with QUEST)."""
    table = _agrawal_disk_table(tmp_path / "q.tbl", n=4000)
    method = QuestSplitSelection()
    checkpointed = replace(BOAT, checkpoint_dir=str(tmp_path / "ckpt"))
    if entry == "sql_pushdown":
        sql = SqlTable.create(":memory:", table.schema, io_stats=IOStats())
        sql.append(table.read_all())
        config = replace(BOAT, sql_pushdown=True)
        return sql, lambda: boat_build(
            sql, method, SPLIT, config, spill_dir=spill_dir
        )
    if entry == "sharded":
        partition_table(table, tmp_path / "shards", 2)
        sharded = ShardedTable.open(tmp_path / "shards", IOStats())
        return sharded, lambda: sharded_boat_build(
            sharded, method, SPLIT, BOAT, spill_dir=spill_dir
        )
    run = {
        "checkpoint": lambda: boat_build(
            table, method, SPLIT, checkpointed, spill_dir=spill_dir
        ),
        "resume": lambda: resume_build(table, method, SPLIT, checkpointed),
        "incremental": lambda: IncrementalBoat.build(
            table, method, SPLIT, BOAT, spill_dir=spill_dir
        ),
    }[entry]
    return table, run


class TestIntegerOnlyPaths:
    """Paths that need integer statistics refuse QUEST with one clean error."""

    @pytest.mark.parametrize(
        "entry", ["checkpoint", "resume", "sql_pushdown", "sharded", "incremental"]
    )
    def test_rejected_without_litter(self, tmp_path, entry):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        table, run = _quest_entry(entry, tmp_path, str(spill_dir))
        with table:
            table.io_stats.reset()
            with pytest.raises(SplitSelectionError, match="QUEST"):
                run()
            assert table.io_stats.full_scans == 0
        assert os.listdir(spill_dir) == []
        assert not (tmp_path / "ckpt").exists()


def test_import_skips_scipy_special():
    """``import repro`` leaves scipy.special to the first QUEST p-value."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
