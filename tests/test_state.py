"""Tests for repro.core.state — skeleton streaming and effective statistics."""

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import (
    BoatNode,
    CoarseCategorical,
    CoarseNumeric,
    collect_family,
    effective_stats,
    multiset_remove,
    stream_batch,
)
from repro.exceptions import StorageError
from repro.splits import Gini
from repro.storage import CLASS_COLUMN, Attribute, Schema, TupleStore

from .conftest import simple_xy_data

CONFIG = BoatConfig(sample_size=100, bootstrap_repetitions=2)


def build_skeleton(schema):
    """Root: x in [40, 60] numeric; left frontier; right: color in {0, 1}."""
    edges = {0: np.array([20.0, 40.0, 60.0, 80.0]), 1: np.array([50.0])}
    root = BoatNode(0, 0, CoarseNumeric(0, 40.0, 60.0), schema, edges, CONFIG)
    left = BoatNode(1, 1, None, schema, {}, CONFIG)
    right = BoatNode(
        2, 1, CoarseCategorical(2, frozenset({0, 1})), schema, dict(edges), CONFIG
    )
    rl = BoatNode(3, 2, None, schema, {}, CONFIG)
    rr = BoatNode(4, 2, None, schema, {}, CONFIG)
    root.left, root.right = left, right
    left.parent = right.parent = root
    right.left, right.right = rl, rr
    rl.parent = rr.parent = right
    return root


class TestStreamBatch:
    def test_partition_invariant(self, small_schema):
        """Every streamed tuple lands in exactly one store."""
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 500, seed=1)
        stream_batch(root, data, small_schema)
        stored = sum(
            (len(n.held) if n.held is not None else 0)
            + (len(n.family_store) if n.family_store is not None else 0)
            for n in root.nodes()
        )
        assert stored == 500

    def test_root_counts_cover_everything(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 300, seed=2)
        stream_batch(root, data, small_schema)
        assert root.n_tuples == 300
        assert np.array_equal(
            root.class_counts, np.bincount(data[CLASS_COLUMN], minlength=2)
        )

    def test_held_contains_exactly_interval(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 400, seed=3)
        stream_batch(root, data, small_schema)
        held = root.held.read_all()
        expected = data[(data["x"] >= 40.0) & (data["x"] <= 60.0)]
        assert len(held) == len(expected)
        assert np.array_equal(np.sort(held["x"]), np.sort(expected["x"]))

    def test_below_above_counts(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 400, seed=4)
        stream_batch(root, data, small_schema)
        below = data[data["x"] < 40.0]
        above = data[data["x"] > 60.0]
        assert np.array_equal(
            root.below_counts, np.bincount(below[CLASS_COLUMN], minlength=2)
        )
        assert np.array_equal(
            root.above_counts, np.bincount(above[CLASS_COLUMN], minlength=2)
        )

    def test_categorical_routing(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 400, seed=5)
        stream_batch(root, data, small_schema)
        right = root.right
        above = data[data["x"] > 60.0]
        go_left = np.isin(above["color"], [0, 1])
        assert right.left.n_tuples == int(go_left.sum())
        assert right.right.n_tuples == int((~go_left).sum())

    def test_bucket_counts_sum_to_family(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 250, seed=6)
        stream_batch(root, data, small_schema)
        for counts in root.bucket_counts.values():
            assert counts.sum() == 250

    def test_cat_counts_match_contingency(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 250, seed=7)
        stream_batch(root, data, small_schema)
        expected = np.zeros((4, 2), dtype=np.int64)
        np.add.at(expected, (data["color"], data[CLASS_COLUMN]), 1)
        assert np.array_equal(root.cat_counts[2], expected)

    def test_delete_inverts_insert(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 300, seed=8)
        stream_batch(root, data, small_schema, sign=1)
        stream_batch(root, data[:100], small_schema, sign=-1)
        assert root.n_tuples == 200
        ref = build_skeleton(small_schema)
        stream_batch(ref, data[100:], small_schema, sign=1)
        assert np.array_equal(root.class_counts, ref.class_counts)
        assert np.array_equal(root.bucket_counts[0], ref.bucket_counts[0])
        held_a = np.sort(root.held.read_all(), order=["x", "y"])
        held_b = np.sort(ref.held.read_all(), order=["x", "y"])
        assert np.array_equal(held_a["x"], held_b["x"])

    def test_delete_missing_tuple_raises(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 100, seed=9)
        stream_batch(root, data, small_schema, sign=1)
        phantom = data[:1].copy()
        phantom["x"] = 50.0  # lands in the interval store
        phantom["y"] = -12345.0  # but never inserted
        with pytest.raises(StorageError):
            stream_batch(root, phantom, small_schema, sign=-1)

    def test_dirty_flags_follow_path(self, small_schema):
        root = build_skeleton(small_schema)
        for node in root.nodes():
            node.dirty = False
        data = simple_xy_data(small_schema, 50, seed=10)
        only_below = data[data["x"] < 40.0]
        stream_batch(root, only_below, small_schema)
        assert root.dirty
        assert root.left.dirty
        assert not root.right.dirty


class TestMultisetRemove:
    def test_removes_one_occurrence_each(self, small_schema):
        data = simple_xy_data(small_schema, 10, seed=11)
        doubled = np.concatenate([data, data])
        remaining = multiset_remove(doubled, data)
        assert len(remaining) == 10

    def test_missing_needle_raises(self, small_schema):
        data = simple_xy_data(small_schema, 5, seed=12)
        foreign = simple_xy_data(small_schema, 1, seed=99)
        with pytest.raises(StorageError):
            multiset_remove(data, foreign)

    def test_empty_needles_noop(self, small_schema):
        data = simple_xy_data(small_schema, 5, seed=13)
        assert len(multiset_remove(data, small_schema.empty(0))) == 5

    def test_remove_all(self, small_schema):
        data = simple_xy_data(small_schema, 5, seed=14)
        assert len(multiset_remove(data, data)) == 0

    @pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
    def test_earliest_matches_go_across_blocks(self, chunk_rows):
        """Over any chunk layout, a store removes exactly the rows a
        row-by-row scan does, and so does ``multiset_remove``."""
        schema = Schema([Attribute.numerical("a")], n_classes=2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            haystack = schema.empty(int(rng.integers(1, 40)))
            # Few distinct records: duplicates straddle chunk edges; -0.0
            # and NaN match only bitwise.
            haystack["a"] = rng.choice([0.0, -0.0, np.nan, 1.5], len(haystack))
            haystack[CLASS_COLUMN] = rng.integers(0, 2, len(haystack))
            needles = haystack[rng.integers(0, len(haystack), rng.integers(1, 8))]
            if rng.random() < 0.2:
                needles["a"][-1] = 7.0  # a record never inserted
            pending = {}
            for record in needles:
                pending[record.tobytes()] = pending.get(record.tobytes(), 0) + 1
            keep = np.ones(len(haystack), dtype=bool)
            for i, record in enumerate(haystack):
                if pending.get(record.tobytes(), 0):
                    pending[record.tobytes()] -= 1
                    keep[i] = False
            expected = haystack[keep] if not any(pending.values()) else None
            store = TupleStore(schema)
            for lo in range(0, len(haystack), chunk_rows):
                store.append(haystack[lo : lo + chunk_rows].copy())
            if expected is None:
                with pytest.raises(StorageError):
                    multiset_remove(haystack, needles)
                with pytest.raises(StorageError):
                    store.remove(needles)
                assert store.read_all().tobytes() == haystack.tobytes()
            else:
                got = multiset_remove(haystack, needles)
                assert got.tobytes() == expected.tobytes()
                store.remove(needles)
                assert store.read_all().tobytes() == expected.tobytes()


class TestEffectiveStats:
    def test_no_inherited_aliases_persistent(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 200, seed=15)
        stream_batch(root, data, small_schema)
        stats = effective_stats(root, small_schema.empty(0), small_schema)
        assert stats.class_counts is root.class_counts

    def test_inherited_equivalent_to_streaming(self, small_schema):
        """Streaming X+Y == streaming X then inheriting Y, statistically."""
        data = simple_xy_data(small_schema, 400, seed=16)
        part_a, part_b = data[:300], data[300:]
        direct = build_skeleton(small_schema)
        stream_batch(direct, data, small_schema)
        partial = build_skeleton(small_schema)
        stream_batch(partial, part_a, small_schema)
        stats = effective_stats(partial, part_b, small_schema)
        full = effective_stats(direct, small_schema.empty(0), small_schema)
        assert np.array_equal(stats.class_counts, full.class_counts)
        assert np.array_equal(stats.bucket_counts[0], full.bucket_counts[0])
        assert np.array_equal(stats.cat_counts[2], full.cat_counts[2])
        assert np.array_equal(stats.below_counts, full.below_counts)
        assert np.array_equal(stats.above_counts, full.above_counts)
        assert len(stats.held) == len(full.held)

    def test_inherited_partition_for_children(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 100, seed=17)
        stream_batch(root, data[:50], small_schema)
        inherited = data[50:]
        stats = effective_stats(root, inherited, small_schema)
        n_below = int((inherited["x"] < 40.0).sum())
        n_above = int((inherited["x"] > 60.0).sum())
        assert len(stats.inherited_below) == n_below
        assert len(stats.inherited_above) == n_above
        assert len(stats.held) == len(root.held) + (
            len(inherited) - n_below - n_above
        )


class TestCollectFamily:
    def test_reassembles_everything(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 350, seed=18)
        stream_batch(root, data, small_schema)
        family = collect_family(root, small_schema.empty(0), small_schema)
        assert len(family) == 350
        assert np.array_equal(np.sort(family["x"]), np.sort(data["x"]))

    def test_includes_inherited(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 100, seed=19)
        stream_batch(root, data[:80], small_schema)
        family = collect_family(root, data[80:], small_schema)
        assert len(family) == 100

    def test_subtree_scope(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 300, seed=20)
        stream_batch(root, data, small_schema)
        right_family = collect_family(
            root.right, small_schema.empty(0), small_schema
        )
        assert len(right_family) == root.right.n_tuples

    def test_release_clears_stores(self, small_schema):
        root = build_skeleton(small_schema)
        data = simple_xy_data(small_schema, 200, seed=21)
        stream_batch(root, data, small_schema)
        root.release()
        assert len(collect_family(root, small_schema.empty(0), small_schema)) == 0
