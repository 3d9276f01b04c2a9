"""Kernel-oracle differential suite: numpy backend ≡ python backend.

The per-row :class:`~repro.kernels.PythonKernels` is the oracle — a
direct transcription of the statistics BOAT accumulates, slow but
obviously correct.  Every case here runs the *same* build twice, once
per backend, and asserts the serialized trees are **byte-identical**:
across Agrawal functions F1–F10, gini and QUEST split selection, flat
and sharded (K=2) tables — with the two-scan I/O invariant still
holding under either backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import (
    DiskTable,
    IOStats,
    MemoryTable,
    ShardedTable,
    partition_table,
)
from repro.tree import tree_to_json

pytestmark = pytest.mark.kernels

N_TUPLES = 1200
SPLIT_CONFIG = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)
ALL_FUNCTIONS = list(range(1, 11))


def _workload(function_id: int, seed: int = 0):
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=seed
    )
    return generator.generate(N_TUPLES), generator.schema


def _boat_config(backend: str, n_workers: int = 1) -> BoatConfig:
    return BoatConfig(
        sample_size=400,
        bootstrap_repetitions=5,
        bootstrap_subsample=300,
        seed=11,
        n_workers=n_workers,
        parallel_backend="thread" if n_workers > 1 else "auto",
        kernel_backend=backend,
    )


def _gini_tree(table, backend: str, n_workers: int = 1) -> str:
    result = boat_build(
        table,
        ImpuritySplitSelection("gini", kernels=backend),
        SPLIT_CONFIG,
        _boat_config(backend, n_workers),
    )
    return tree_to_json(result.tree)


def _quest_tree(table, backend: str) -> str:
    result = boat_build(
        table,
        QuestSplitSelection(kernels=backend),
        SPLIT_CONFIG,
        _boat_config(backend),
    )
    return tree_to_json(result.tree)


class TestFlatOracle:
    @pytest.mark.parametrize("function_id", ALL_FUNCTIONS)
    def test_gini_trees_byte_identical(self, function_id):
        data, schema = _workload(function_id)
        trees = {
            backend: _gini_tree(MemoryTable(schema, data), backend)
            for backend in ("numpy", "python")
        }
        assert trees["numpy"] == trees["python"]

    @pytest.mark.parametrize("function_id", ALL_FUNCTIONS)
    def test_quest_trees_byte_identical(self, function_id):
        data, schema = _workload(function_id)
        trees = {
            backend: _quest_tree(MemoryTable(schema, data), backend)
            for backend in ("numpy", "python")
        }
        assert trees["numpy"] == trees["python"]

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_worker_counts_byte_identical(self, n_workers):
        data, schema = _workload(3)
        trees = {
            backend: _gini_tree(MemoryTable(schema, data), backend, n_workers)
            for backend in ("numpy", "python")
        }
        assert trees["numpy"] == trees["python"]

    def test_two_scan_invariant_both_backends(self):
        data, schema = _workload(1)
        for backend in ("numpy", "python"):
            io = IOStats()
            boat_build(
                MemoryTable(schema, data, io_stats=io),
                ImpuritySplitSelection("gini", kernels=backend),
                SPLIT_CONFIG,
                _boat_config(backend),
            )
            assert io.full_scans == 2, backend


class TestShardedOracle:
    @pytest.fixture(scope="class")
    def shard_dir_factory(self, tmp_path_factory):
        def make(function_id: int) -> str:
            data, schema = _workload(function_id)
            root = tmp_path_factory.mktemp(f"oracle-f{function_id}")
            flat = DiskTable.create(str(root / "flat.tbl"), schema)
            flat.append(data)
            directory = str(root / "shards")
            partition_table(flat, directory, 2)
            flat.close()
            return directory

        return make

    @pytest.mark.parametrize("function_id", [1, 4, 8])
    def test_sharded_gini_byte_identical(self, shard_dir_factory, function_id):
        directory = shard_dir_factory(function_id)
        trees = {}
        for backend in ("numpy", "python"):
            io = IOStats()
            table = ShardedTable.open(directory, io)
            try:
                trees[backend] = _gini_tree(table, backend)
            finally:
                table.close()
            assert io.full_scans == 2, backend
        assert trees["numpy"] == trees["python"]

    @pytest.mark.parametrize("function_id", [2, 6])
    def test_sharded_quest_byte_identical(self, shard_dir_factory, function_id):
        directory = shard_dir_factory(function_id)
        trees = {}
        for backend in ("numpy", "python"):
            io = IOStats()
            table = ShardedTable.open(directory, io)
            try:
                trees[backend] = _quest_tree(table, backend)
            finally:
                table.close()
            assert io.full_scans == 2, backend
        assert trees["numpy"] == trees["python"]

    def test_sharded_matches_flat_per_backend(self, shard_dir_factory):
        """Sharding and the kernel backend compose: all four builds agree."""
        data, schema = _workload(5)
        directory = shard_dir_factory(5)
        trees = {}
        for backend in ("numpy", "python"):
            trees[("flat", backend)] = _gini_tree(
                MemoryTable(schema, data), backend
            )
            table = ShardedTable.open(directory, IOStats())
            try:
                trees[("sharded", backend)] = _gini_tree(table, backend)
            finally:
                table.close()
        baseline = trees[("flat", "numpy")]
        for key, payload in trees.items():
            assert payload == baseline, f"{key} diverged"
