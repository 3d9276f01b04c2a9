"""``repro.forest``: shared-scan bagged ensembles.

The headline guarantee mirrors the paper's exactness story, lifted to
ensembles: a forest built in **two physical scans** (one shared sample
gather, one shared cleanup scan) contains member trees **byte-identical**
to standalone ``boat_build`` runs over the members' resamples
(:class:`ResampleTable`), for both split-selection drivers and at any
worker count.  Out-of-bag accounting must ride the same cleanup scan —
``IOStats.full_scans`` stays 2 with ``oob=True``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import SplitSelectionError, StorageError
from repro.forest import (
    DecisionForest,
    ResampleTable,
    bootstrap_weights,
    expand_batch,
    forest_build,
    forest_diff,
    forest_from_json,
    forest_to_json,
    forests_equal,
    load_model_json,
    majority_vote,
    plan_members,
)
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import DiskTable, IOStats, MemoryTable
from repro.tree import DecisionTree, tree_to_json

from .conftest import simple_xy_data

N_TUPLES = 2500
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)
BOAT = BoatConfig(
    sample_size=500,
    bootstrap_repetitions=4,
    bootstrap_subsample=300,
    seed=11,
    batch_rows=512,
)


def _make_method(name: str):
    if name == "quest":
        return QuestSplitSelection()
    return ImpuritySplitSelection(name)


def _make_table(tmp_path, function_id=1, n=N_TUPLES, seed=5):
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=seed
    )
    path = str(tmp_path / "train.tbl")
    with DiskTable.create(path, generator.schema) as table:
        generator.fill_table(table, n)
    return path, generator.schema


def _standalone_member(path, plan, method_name, n_workers=1):
    """One member the way a user would build it without the forest driver."""
    io = IOStats()
    with DiskTable.open(path, io) as source:
        table = ResampleTable(source, plan.weights)
        config = replace(BOAT, seed=plan.build_seed, n_workers=n_workers)
        method = _make_method(method_name)
        result = boat_build(table, method, SPLIT, config)
    return result.tree, io


# -- bagging primitives -------------------------------------------------------


class TestBagging:
    def test_bootstrap_weights_shape_and_mass(self):
        rng = np.random.default_rng(0)
        weights = bootstrap_weights(100, 100, rng)
        assert weights.shape == (100,)
        assert weights.dtype == np.int64
        assert weights.sum() == 100
        assert (weights >= 0).all()

    def test_bootstrap_weights_deterministic(self):
        a = bootstrap_weights(64, 64, np.random.default_rng(9))
        b = bootstrap_weights(64, 64, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_expand_batch_is_chunked_repeat(self, small_schema):
        batch = simple_xy_data(small_schema, 200, seed=2)
        weights = bootstrap_weights(200, 200, np.random.default_rng(1))
        chunks = list(expand_batch(batch, weights, 64))
        assert all(len(c) <= 64 for c in chunks)
        assert np.array_equal(
            np.concatenate(chunks), np.repeat(batch, weights)
        )

    def test_expand_batch_empty_expansion(self, small_schema):
        batch = simple_xy_data(small_schema, 10, seed=2)
        chunks = list(expand_batch(batch, np.zeros(10, dtype=np.int64), 64))
        assert chunks == []

    def test_plan_members_deterministic_and_distinct(self):
        plans = plan_members(42, 4, 300)
        again = plan_members(42, 4, 300)
        assert [p.build_seed for p in plans] == [p.build_seed for p in again]
        assert len({p.build_seed for p in plans}) == 4
        for plan in plans:
            assert plan.weights.sum() == plan.resample_rows == 300
            assert np.array_equal(plan.oob_rows, np.flatnonzero(plan.weights == 0))

    def test_plan_members_differ_across_root_seeds(self):
        a = plan_members(1, 2, 100)
        b = plan_members(2, 2, 100)
        assert a[0].build_seed != b[0].build_seed

    def test_resample_table_scan_is_canonical_resample(self, small_schema):
        data = simple_xy_data(small_schema, 150, seed=3)
        source = MemoryTable(small_schema, data)
        plan = plan_members(7, 1, 150)[0]
        table = ResampleTable(source, plan.weights)
        assert len(table) == 150
        scanned = np.concatenate(list(table.scan(32)))
        assert np.array_equal(scanned, np.repeat(data, plan.weights))

    def test_resample_table_is_read_only(self, small_schema):
        data = simple_xy_data(small_schema, 20, seed=3)
        table = ResampleTable(
            MemoryTable(small_schema, data),
            np.ones(20, dtype=np.int64),
        )
        with pytest.raises(StorageError):
            table.append(data[:5])


# -- differential: forest members == standalone builds ------------------------


@pytest.mark.forest
class TestForestDifferential:
    """Acceptance matrix: M x method, byte-for-byte, two scans total."""

    @pytest.mark.parametrize("method_name", ["gini", "quest"])
    @pytest.mark.parametrize("n_members", [1, 4, 8])
    def test_members_byte_identical_to_standalone(
        self, tmp_path, method_name, n_members
    ):
        path, _ = _make_table(tmp_path)
        io = IOStats()
        with DiskTable.open(path, io) as table:
            result = forest_build(
                table, n_members, _make_method(method_name), SPLIT, BOAT
            )
        assert io.full_scans == 2  # shared scans, independent of M
        plans = plan_members(BOAT.seed, n_members, N_TUPLES)
        assert result.forest.member_seeds == [p.build_seed for p in plans]
        for plan, member in zip(plans, result.forest.members):
            standalone, standalone_io = _standalone_member(
                path, plan, method_name
            )
            assert tree_to_json(member) == tree_to_json(standalone)
            assert standalone_io.full_scans == 2

    @pytest.mark.parametrize("method_name", ["gini", "quest"])
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_worker_count_never_changes_the_forest(
        self, tmp_path, method_name, n_workers
    ):
        path, _ = _make_table(tmp_path)

        def build(workers: int) -> tuple[str, int]:
            io = IOStats()
            with DiskTable.open(path, io) as table:
                result = forest_build(
                    table,
                    4,
                    _make_method(method_name),
                    SPLIT,
                    replace(BOAT, n_workers=workers),
                )
            return forest_to_json(result.forest), io.full_scans

        # Serial is the reference; any thread fan-out must reproduce it.
        serial, serial_scans = build(1)
        parallel, parallel_scans = build(n_workers)
        assert parallel == serial
        assert serial_scans == parallel_scans == 2


class TestForestBuildModes:
    def test_in_memory_switch(self, small_schema):
        data = simple_xy_data(small_schema, 400, seed=4)
        io = IOStats()
        table = MemoryTable(small_schema, data, io_stats=io)
        result = forest_build(
            table,
            3,
            boat_config=BoatConfig(sample_size=400, seed=5),
            split_config=SplitConfig(min_samples_split=10, max_depth=5),
        )
        assert result.report.mode == "in-memory"
        assert io.full_scans == 1  # sample gather covers everything
        assert result.forest.n_members == 3

    def test_rejects_bad_member_count(self, small_schema):
        data = simple_xy_data(small_schema, 50, seed=4)
        with pytest.raises(SplitSelectionError):
            forest_build(MemoryTable(small_schema, data), 0)

    def test_report_carries_member_diagnostics(self, tmp_path):
        path, _ = _make_table(tmp_path, n=1200)
        io = IOStats()
        with DiskTable.open(path, io) as table:
            result = forest_build(
                table, 2, _make_method("gini"), SPLIT, BOAT
            )
        report = result.report
        assert report.n_members == 2 and report.table_size == 1200
        assert {m.index for m in report.members} == {0, 1}
        assert all(m.tree_nodes > 0 for m in report.members)
        assert set(report.wall_seconds) >= {"sampling", "cleanup_scan", "finalize"}


# -- out-of-bag accounting ----------------------------------------------------


@pytest.mark.forest
class TestOutOfBag:
    @pytest.mark.parametrize("function_id", [1, 5])
    def test_oob_rides_the_shared_scan_and_tracks_held_out(self, function_id):
        generator = AgrawalGenerator(
            AgrawalConfig(function_id=function_id, noise=0.05), seed=9
        )
        train = generator.generate(6000)
        held_out = generator.generate(4000)
        io = IOStats()
        table = MemoryTable(generator.schema, train, io_stats=io)
        result = forest_build(
            table,
            5,
            split_config=SplitConfig(
                min_samples_split=20, min_samples_leaf=5, max_depth=10
            ),
            boat_config=BoatConfig(
                sample_size=1200,
                bootstrap_repetitions=5,
                bootstrap_subsample=800,
                seed=21,
            ),
            oob=True,
        )
        # The OOB estimate must come from scan 2 itself — no third pass.
        assert io.full_scans == 2
        report = result.report
        assert report.oob_error is not None
        # A row is out-of-bag for one member with probability ~1/e, so
        # coverage for M=5 is ~1 - (1 - 1/e)^5 ~= 0.90.
        assert 0.85 < report.oob_coverage < 0.95
        for member in report.members:
            assert member.oob_rows == len(
                plan_members(21, 5, 6000)[member.index].oob_rows
            )
        held_out_error = result.forest.misclassification_rate(held_out)
        assert abs(report.oob_error - held_out_error) < 0.05


# -- model: voting, diff, serialization ---------------------------------------


def _tiny_forest(schema, n_members=3, seed=6) -> DecisionForest:
    data = simple_xy_data(schema, 300, seed=seed, rule="xy")
    result = forest_build(
        MemoryTable(schema, data),
        n_members,
        boat_config=BoatConfig(sample_size=300, seed=seed),
        split_config=SplitConfig(min_samples_split=10, max_depth=4),
    )
    return result.forest


class TestForestModel:
    def test_majority_vote_breaks_ties_toward_smallest_label(self):
        member_labels = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int64)
        votes = majority_vote(member_labels, n_classes=2)
        assert votes.dtype == np.int32
        assert list(votes) == [0, 0, 1]

    def test_predict_is_member_majority(self, small_schema):
        forest = _tiny_forest(small_schema)
        batch = simple_xy_data(small_schema, 100, seed=8, rule="xy")
        per_member = forest.member_predictions(batch)
        assert per_member.shape == (100, forest.n_members)
        assert np.array_equal(
            forest.predict(batch),
            majority_vote(per_member, forest.n_classes),
        )

    def test_predict_proba_averages_members(self, small_schema):
        forest = _tiny_forest(small_schema)
        batch = simple_xy_data(small_schema, 50, seed=8, rule="xy")
        expected = np.zeros((50, forest.n_classes))
        for member in forest.members:
            expected += member.predict_proba(batch)
        expected /= forest.n_members
        assert np.array_equal(forest.predict_proba(batch), expected)

    def test_forest_diff_identical_is_none(self, small_schema):
        forest = _tiny_forest(small_schema)
        assert forest_diff(forest, forest) is None
        assert forests_equal(forest, forest)

    def test_forest_diff_names_first_diverging_member(self, small_schema):
        a = _tiny_forest(small_schema, seed=6)
        b = _tiny_forest(small_schema, seed=7)
        difference = forest_diff(a, b)
        assert difference is not None
        assert difference.member >= 0
        assert "member" in str(difference)

    def test_forest_diff_member_count_mismatch(self, small_schema):
        a = _tiny_forest(small_schema, n_members=2)
        b = _tiny_forest(small_schema, n_members=3)
        difference = forest_diff(a, b)
        assert difference is not None
        assert difference.member is None
        assert "member counts differ" in str(difference)

    def test_json_round_trip_is_byte_stable(self, small_schema):
        forest = _tiny_forest(small_schema)
        text = forest_to_json(forest)
        restored = forest_from_json(text)
        assert forest_diff(forest, restored) is None
        assert forest_to_json(restored) == text
        assert restored.member_seeds == forest.member_seeds

    def test_load_model_json_detects_both_formats(self, small_schema):
        forest = _tiny_forest(small_schema)
        assert isinstance(load_model_json(forest_to_json(forest)), DecisionForest)
        tree = forest.members[0]
        assert isinstance(load_model_json(tree_to_json(tree)), DecisionTree)
