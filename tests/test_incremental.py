"""Tests for incremental maintenance (§4): insert/delete exactness, drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoatConfig, SplitConfig
from repro.core import IncrementalBoat
from repro.core.incremental import REPORT_HISTORY
from repro.datagen import AgrawalConfig, AgrawalGenerator, drifted_function_1
from repro.exceptions import StorageError, TreeStructureError
from repro.splits import ImpuritySplitSelection
from repro.storage import CLASS_COLUMN, MemoryTable
from repro.tree import build_reference_tree, tree_diff, trees_equal

from .conftest import simple_xy_data

GINI = ImpuritySplitSelection("gini")
SPLIT = SplitConfig(min_samples_split=40, min_samples_leaf=10, max_depth=8)
BOAT = BoatConfig(sample_size=800, bootstrap_repetitions=6, seed=2)


def build_maintainer(schema, data, split=SPLIT, boat=BOAT):
    return IncrementalBoat.build(MemoryTable(schema, data), GINI, split, boat)


def assert_matches_rebuild(inc, schema, accumulated, split=SPLIT):
    reference = build_reference_tree(accumulated, schema, GINI, split)
    diff = tree_diff(inc.tree, reference)
    assert diff is None, f"incremental tree diverged: {diff}"


class TestInitialBuild:
    def test_matches_reference(self, small_schema):
        data = simple_xy_data(small_schema, 4000, seed=1, rule="xy")
        inc = build_maintainer(small_schema, data)
        assert_matches_rebuild(inc, small_schema, data)

    def test_from_chunk(self, small_schema):
        data = simple_xy_data(small_schema, 3000, seed=2, rule="x")
        inc = IncrementalBoat.from_chunk(data, small_schema, GINI, SPLIT, BOAT)
        assert_matches_rebuild(inc, small_schema, data)

    def test_from_chunk_stores_each_tuple_once(self, small_schema):
        """Regression: _grow_skeleton already streams the chunk; streaming
        again double-counted every tuple (invisible on the first tree,
        corrupting after mixed-multiplicity inserts)."""
        data = simple_xy_data(small_schema, 3000, seed=2, rule="x")
        inc = IncrementalBoat.from_chunk(data, small_schema, GINI, SPLIT, BOAT)
        assert inc.stored_rows() == 3000
        assert inc.skeleton.n_tuples in (0, 3000)  # frontier root has counts

    def test_from_chunk_then_inserts_exact(self, small_schema):
        """Regression companion: mixed multiplicities must stay exact."""
        chunks = [
            simple_xy_data(small_schema, 1500, seed=500 + i, rule="xy")
            for i in range(4)
        ]
        inc = IncrementalBoat.from_chunk(
            chunks[0], small_schema, GINI, SPLIT, BOAT
        )
        for chunk in chunks[1:]:
            inc.insert(chunk)
        assert_matches_rebuild(inc, small_schema, np.concatenate(chunks))

    def test_stores_partition_data(self, small_schema):
        data = simple_xy_data(small_schema, 3000, seed=3)
        inc = build_maintainer(small_schema, data)
        assert inc.stored_rows() == 3000
        assert inc.n_rows == 3000

    def test_materialize_roundtrip(self, small_schema):
        data = simple_xy_data(small_schema, 2000, seed=4)
        inc = build_maintainer(small_schema, data)
        back = inc.materialize()
        assert len(back) == 2000
        assert np.array_equal(np.sort(back["x"]), np.sort(data["x"]))

    def test_unbuilt_access_raises(self, small_schema):
        inc = IncrementalBoat(small_schema, GINI, SPLIT, BOAT)
        with pytest.raises(TreeStructureError):
            _ = inc.tree
        with pytest.raises(TreeStructureError):
            inc.insert(small_schema.empty(0))


class TestInsertions:
    def test_single_chunk_exact(self, small_schema):
        base = simple_xy_data(small_schema, 3000, seed=5, rule="xy")
        chunk = simple_xy_data(small_schema, 1000, seed=55, rule="xy")
        inc = build_maintainer(small_schema, base)
        inc.insert(chunk)
        assert_matches_rebuild(inc, small_schema, np.concatenate([base, chunk]))

    def test_many_chunks_exact(self, small_schema):
        accumulated = simple_xy_data(small_schema, 2000, seed=6, rule="xy")
        inc = build_maintainer(small_schema, accumulated)
        for i in range(5):
            chunk = simple_xy_data(small_schema, 800, seed=100 + i, rule="xy")
            inc.insert(chunk)
            accumulated = np.concatenate([accumulated, chunk])
            assert_matches_rebuild(inc, small_schema, accumulated)

    def test_reports_accumulate(self, small_schema):
        base = simple_xy_data(small_schema, 2000, seed=7)
        inc = build_maintainer(small_schema, base)
        inc.insert(simple_xy_data(small_schema, 500, seed=70))
        assert [r.operation for r in inc.reports] == ["build", "insert"]
        assert inc.reports[-1].chunk_size == 500

    def test_reports_are_bounded(self, small_schema):
        """A long-running maintainer keeps only the most recent reports."""
        base = simple_xy_data(small_schema, 600, seed=9)
        inc = build_maintainer(small_schema, base)
        rows = simple_xy_data(small_schema, 500, seed=90)
        for i in range(500):
            last = inc.insert(rows[i : i + 1])
        assert len(inc.reports) <= REPORT_HISTORY
        assert inc.reports[-1] is last
        assert len(inc.drift) <= REPORT_HISTORY

    def test_empty_chunk_is_noop(self, small_schema):
        base = simple_xy_data(small_schema, 2000, seed=8, rule="x")
        inc = build_maintainer(small_schema, base)
        before = inc.tree
        inc.insert(small_schema.empty(0))
        assert trees_equal(inc.tree, before)

    def test_chunk_validation(self, small_schema):
        base = simple_xy_data(small_schema, 2000, seed=9)
        inc = build_maintainer(small_schema, base)
        bad = small_schema.empty(1)
        bad["color"] = 99
        with pytest.raises(Exception):
            inc.insert(bad)

    def test_n_rows_tracks(self, small_schema):
        base = simple_xy_data(small_schema, 2000, seed=10)
        inc = build_maintainer(small_schema, base)
        inc.insert(simple_xy_data(small_schema, 300, seed=11))
        assert inc.n_rows == 2300
        assert inc.stored_rows() == 2300


class TestDeletions:
    def test_delete_recent_chunk_exact(self, small_schema):
        base = simple_xy_data(small_schema, 3000, seed=12, rule="xy")
        chunk = simple_xy_data(small_schema, 1000, seed=13, rule="xy")
        inc = build_maintainer(small_schema, base)
        inc.insert(chunk)
        inc.delete(chunk)
        assert_matches_rebuild(inc, small_schema, base)
        assert inc.n_rows == 3000

    def test_delete_part_of_base_exact(self, small_schema):
        base = simple_xy_data(small_schema, 3000, seed=14, rule="xy")
        inc = build_maintainer(small_schema, base)
        inc.delete(base[:500])
        assert_matches_rebuild(inc, small_schema, base[500:])

    def test_delete_everything(self, small_schema):
        base = simple_xy_data(small_schema, 1500, seed=15, rule="x")
        inc = build_maintainer(small_schema, base)
        inc.delete(base)
        assert inc.n_rows == 0
        assert inc.tree.n_nodes == 1

    def test_delete_unknown_tuple_raises(self, small_schema):
        base = simple_xy_data(small_schema, 1000, seed=16)
        inc = build_maintainer(small_schema, base)
        foreign = simple_xy_data(small_schema, 1, seed=999)
        with pytest.raises(StorageError):
            inc.delete(foreign)

    def test_insert_delete_interleaved(self, small_schema):
        accumulated = simple_xy_data(small_schema, 2000, seed=17, rule="xy")
        inc = build_maintainer(small_schema, accumulated)
        chunks = [
            simple_xy_data(small_schema, 600, seed=200 + i, rule="xy")
            for i in range(3)
        ]
        for chunk in chunks:
            inc.insert(chunk)
        accumulated = np.concatenate([accumulated] + chunks)
        inc.delete(chunks[1])
        keep = np.concatenate([accumulated[:2000], chunks[0], chunks[2]])
        assert_matches_rebuild(inc, small_schema, keep)


class TestDrift:
    def test_drifted_distribution_stays_exact(self):
        gen = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1), seed=20)
        base = gen.generate(12000)
        split = SplitConfig(min_samples_split=150, min_samples_leaf=40, max_depth=8)
        boat = BoatConfig(
            sample_size=2500, bootstrap_repetitions=8, bootstrap_subsample=1500,
            seed=3,
        )
        inc = IncrementalBoat.build(
            MemoryTable(gen.schema, base), GINI, split, boat
        )
        accumulated = base
        drifted = AgrawalConfig(
            function_id=1, noise=0.1, label_fn=drifted_function_1(70.0)
        )
        for i in range(3):
            chunk = AgrawalGenerator(drifted, seed=300 + i).generate(6000)
            inc.insert(chunk)
            accumulated = np.concatenate([accumulated, chunk])
            reference = build_reference_tree(accumulated, gen.schema, GINI, split)
            assert tree_diff(inc.tree, reference) is None

    def test_distribution_flip_forces_structure_change(self, small_schema):
        """Labels invert entirely — the tree must follow, exactly."""
        base = simple_xy_data(small_schema, 3000, seed=21, rule="x")
        inc = build_maintainer(small_schema, base)
        flipped = simple_xy_data(small_schema, 6000, seed=22, rule="x")
        flipped[CLASS_COLUMN] = 1 - flipped[CLASS_COLUMN]
        inc.insert(flipped)
        assert_matches_rebuild(
            inc, small_schema, np.concatenate([base, flipped])
        )


class TestMaintainerInternals:
    def test_deepening_limits_frontier_size(self, small_schema):
        boat = BoatConfig(sample_size=300, bootstrap_repetitions=6, seed=4)
        base = simple_xy_data(small_schema, 1000, seed=23, rule="x")
        inc = IncrementalBoat.build(
            MemoryTable(small_schema, base), GINI, SPLIT, boat
        )
        for i in range(6):
            inc.insert(simple_xy_data(small_schema, 500, seed=400 + i, rule="x"))
        # After repeated deepening no frontier should hugely exceed the
        # threshold unless the region is unstable (watermark backoff).
        for node in inc.skeleton.nodes():
            if node.family_store is not None:
                assert (
                    len(node.family_store) <= 4000 or node.deepen_watermark > 0
                )

    def test_close_releases_stores(self, small_schema):
        base = simple_xy_data(small_schema, 1000, seed=24)
        inc = build_maintainer(small_schema, base)
        inc.close()
        assert inc.stored_rows() == 0

    def test_tree_snapshots_are_independent(self, small_schema):
        base = simple_xy_data(small_schema, 2000, seed=25, rule="xy")
        inc = build_maintainer(small_schema, base)
        snapshot = inc.tree
        nodes_before = snapshot.n_nodes
        inc.insert(simple_xy_data(small_schema, 2000, seed=26, rule="xy"))
        assert snapshot.n_nodes == nodes_before
        snapshot.validate()


class TestPropertyBased:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        sizes=st.lists(
            st.integers(min_value=100, max_value=800), min_size=1, max_size=3
        ),
        delete_first=st.booleans(),
    )
    def test_random_update_sequences_exact(self, seed, sizes, delete_first):
        from repro.storage import Attribute, Schema

        schema = Schema(
            [
                Attribute.numerical("x"),
                Attribute.numerical("y"),
                Attribute.categorical("color", 4),
            ],
            n_classes=2,
        )
        base = simple_xy_data(schema, 1500, seed=seed, rule="xy")
        inc = IncrementalBoat.build(
            MemoryTable(schema, base),
            GINI,
            SPLIT,
            BoatConfig(sample_size=400, bootstrap_repetitions=4, seed=seed % 13),
        )
        accumulated = base
        if delete_first:
            inc.delete(base[:200])
            accumulated = base[200:]
        for i, size in enumerate(sizes):
            chunk = simple_xy_data(schema, size, seed=seed * 31 + i, rule="xy")
            inc.insert(chunk)
            accumulated = np.concatenate([accumulated, chunk])
        reference = build_reference_tree(accumulated, schema, GINI, SPLIT)
        assert tree_diff(inc.tree, reference) is None
