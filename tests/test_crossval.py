"""Tests for shared-scan k-fold cross-validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_cross_validate
from repro.exceptions import RecoveryError, SplitSelectionError, StorageError
from repro.splits import ImpuritySplitSelection
from repro.storage import DiskTable, FaultyTable, IOStats, MemoryTable
from repro.tree import build_reference_tree, tree_diff, tree_to_json

from .conftest import simple_xy_data

GINI = ImpuritySplitSelection("gini")
SPLIT = SplitConfig(min_samples_split=60, min_samples_leaf=15, max_depth=6)
BOAT = BoatConfig(sample_size=1000, bootstrap_repetitions=6, seed=4)


class TestCrossValidate:
    def test_three_scans_total(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 6000, seed=1, rule="xy")
        io = IOStats()
        table = DiskTable.create(tmp_path / "cv.tbl", small_schema, io)
        table.append(data)
        io.reset()
        result = boat_cross_validate(table, 5, GINI, SPLIT, BOAT)
        assert result.scans == 3
        assert io.full_scans == 3
        assert len(result.trees) == 5
        assert len(result.fold_errors) == 5

    def test_fold_trees_are_exact(self, small_schema):
        """Each fold tree equals the reference tree of its partition."""
        data = simple_xy_data(small_schema, 5000, seed=2, rule="xy")
        table = MemoryTable(small_schema, data)
        k = 4
        result = boat_cross_validate(table, k, GINI, SPLIT, BOAT)
        folds = np.arange(len(data)) % k
        for fold in range(k):
            reference = build_reference_tree(
                data[folds != fold], small_schema, GINI, SPLIT
            )
            diff = tree_diff(result.trees[fold], reference)
            assert diff is None, f"fold {fold}: {diff}"

    def test_fold_errors_match_direct_evaluation(self, small_schema):
        data = simple_xy_data(small_schema, 4000, seed=3, rule="x")
        table = MemoryTable(small_schema, data)
        k = 4
        result = boat_cross_validate(table, k, GINI, SPLIT, BOAT)
        folds = np.arange(len(data)) % k
        for fold in range(k):
            direct = result.trees[fold].misclassification_rate(data[folds == fold])
            assert result.fold_errors[fold] == pytest.approx(direct)

    def test_mean_error_sensible(self, small_schema):
        data = simple_xy_data(small_schema, 4000, seed=4, rule="x")
        table = MemoryTable(small_schema, data)
        result = boat_cross_validate(table, 5, GINI, SPLIT, BOAT)
        assert 0.0 <= result.mean_error < 0.1  # separable rule

    def test_small_table_fallback(self, small_schema):
        data = simple_xy_data(small_schema, 400, seed=5, rule="x")
        table = MemoryTable(small_schema, data)
        result = boat_cross_validate(
            table, 4, GINI, SPLIT, BoatConfig(sample_size=10_000, seed=1)
        )
        folds = np.arange(len(data)) % 4
        for fold in range(4):
            reference = build_reference_tree(
                data[folds != fold], small_schema, GINI, SPLIT
            )
            assert tree_diff(result.trees[fold], reference) is None

    def test_k_validation(self, small_schema):
        data = simple_xy_data(small_schema, 100, seed=6)
        table = MemoryTable(small_schema, data)
        with pytest.raises(SplitSelectionError):
            boat_cross_validate(table, 1, GINI, SPLIT, BOAT)
        tiny = MemoryTable(small_schema, data[:2])
        with pytest.raises(SplitSelectionError):
            boat_cross_validate(tiny, 5, GINI, SPLIT, BOAT)


class TestCrossValidateConfigKnobs:
    """``checkpoint_dir`` is refused and ``scan_retries`` is honoured, as
    in ``forest_build``."""

    def test_checkpoint_dir_refused_before_any_scan(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 2000, seed=7, rule="xy")
        inner = MemoryTable(small_schema, data)
        table = FaultyTable(inner, fail_on_scan=99)
        checkpoint = tmp_path / "ckpt"
        spill = tmp_path / "spill"
        spill.mkdir()
        config = BoatConfig(
            sample_size=1000, bootstrap_repetitions=6, seed=4,
            checkpoint_dir=str(checkpoint),
        )
        with pytest.raises(RecoveryError, match="checkpoint_dir"):
            boat_cross_validate(table, 4, GINI, SPLIT, config, spill_dir=str(spill))
        assert table.scans_started == 0
        assert not checkpoint.exists()
        assert not list(spill.iterdir())

    @pytest.mark.parametrize("scan", [0, 1, 2], ids=["sample", "cleanup", "evaluate"])
    def test_one_shot_fault_absorbed_by_scan_retries(self, small_schema, scan):
        data = simple_xy_data(small_schema, 4000, seed=8, rule="xy")
        clean = boat_cross_validate(
            MemoryTable(small_schema, data), 4, GINI, SPLIT, BOAT
        )
        faulty = FaultyTable(
            MemoryTable(small_schema, data), fail_on_scan=scan, fail_at_row=1500
        )
        config = BoatConfig(
            sample_size=1000, bootstrap_repetitions=6, seed=4,
            scan_retries=1, scan_retry_base_delay_s=0.0,
        )
        result = boat_cross_validate(faulty, 4, GINI, SPLIT, config)
        assert faulty.scans_started == 4  # three scans plus one retry
        assert result.fold_errors == clean.fold_errors
        for ours, reference in zip(result.trees, clean.trees):
            assert tree_diff(ours, reference) is None

    @pytest.mark.parametrize("scan", [0, 1, 2], ids=["sample", "cleanup", "evaluate"])
    def test_unabsorbed_fault_releases_every_fold_store(self, tmp_path, small_schema, scan):
        data = simple_xy_data(small_schema, 4000, seed=8, rule="xy")
        faulty = FaultyTable(
            MemoryTable(small_schema, data), fail_on_scan=scan, fail_at_row=2500
        )
        config = BoatConfig(
            sample_size=1000, bootstrap_repetitions=6, seed=4,
            scan_retries=0, spill_threshold_rows=50, batch_rows=500,
        )
        with pytest.raises(StorageError, match="cross-validation"):
            boat_cross_validate(faulty, 4, GINI, SPLIT, config, spill_dir=str(tmp_path))
        assert faulty.scans_started == scan + 1
        assert not list(tmp_path.iterdir())

    def test_workers_do_not_change_the_result(self, small_schema):
        data = simple_xy_data(small_schema, 4000, seed=9, rule="xy")
        table = MemoryTable(small_schema, data)
        serial = boat_cross_validate(table, 4, GINI, SPLIT, BOAT)
        threaded = boat_cross_validate(
            table, 4, GINI, SPLIT, replace(BOAT, n_workers=2)
        )
        assert threaded.fold_errors == serial.fold_errors
        for ours, reference in zip(threaded.trees, serial.trees):
            assert tree_to_json(ours) == tree_to_json(reference)
