"""Tests for repro.storage.spill (SpillFile, TupleStore)."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import CLASS_COLUMN, IOStats, SpillFile, TupleStore

from .conftest import simple_xy_data


class TestSpillFile:
    def test_append_read_roundtrip(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 150, seed=2)
        spill = SpillFile(small_schema, tmp_path)
        spill.append(data[:70])
        spill.append(data[70:])
        assert len(spill) == 150
        assert np.array_equal(spill.read_all(), data)
        spill.delete()

    def test_rewrite_replaces_contents(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 60, seed=3)
        spill = SpillFile(small_schema, tmp_path)
        spill.append(data)
        spill.rewrite(data[:10])
        assert len(spill) == 10
        assert np.array_equal(spill.read_all(), data[:10])
        spill.delete()

    def test_mismatched_dtype_rejected(self, tmp_path, small_schema):
        spill = SpillFile(small_schema, tmp_path)
        with pytest.raises(StorageError):
            spill.append(np.zeros(3))
        spill.delete()

    def test_use_after_delete_fails(self, tmp_path, small_schema):
        spill = SpillFile(small_schema, tmp_path)
        spill.delete()
        with pytest.raises(StorageError):
            spill.read_all()

    def test_delete_removes_file(self, tmp_path, small_schema):
        spill = SpillFile(small_schema, tmp_path)
        path = spill.path
        assert os.path.exists(path)
        spill.delete()
        assert not os.path.exists(path)

    def test_io_charged(self, tmp_path, small_schema):
        io = IOStats()
        data = simple_xy_data(small_schema, 40, seed=4)
        spill = SpillFile(small_schema, tmp_path, io)
        assert io.spill_files == 1
        spill.append(data)
        assert io.tuples_written == 40
        spill.read_all()
        assert io.tuples_read == 40
        spill.delete()


class TestTupleStore:
    def test_stays_in_memory_below_budget(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 100, seed=5)
        store = TupleStore(small_schema, memory_budget_rows=1000, directory=tmp_path)
        store.append(data)
        assert not store.spilled
        assert np.array_equal(store.read_all(), data)

    def test_spills_beyond_budget(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 100, seed=5)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data[:30])
        assert not store.spilled
        store.append(data[30:])
        assert store.spilled
        assert np.array_equal(store.read_all(), data)

    def test_order_preserved_across_spill(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 120, seed=6)
        store = TupleStore(small_schema, memory_budget_rows=40, directory=tmp_path)
        for start in range(0, 120, 25):
            store.append(data[start : start + 25])
        assert np.array_equal(store.read_all(), data)

    def test_replace_smaller_unspills(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 100, seed=7)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        assert store.spilled
        store.replace(data[:20])
        assert not store.spilled
        assert np.array_equal(store.read_all(), data[:20])

    def test_replace_in_memory(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 30, seed=8)
        store = TupleStore(small_schema, memory_budget_rows=100, directory=tmp_path)
        store.append(data)
        store.replace(data[5:10])
        assert len(store) == 5

    def test_clear(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 30, seed=8)
        store = TupleStore(small_schema, memory_budget_rows=10, directory=tmp_path)
        store.append(data)
        store.clear()
        assert len(store) == 0
        assert not store.spilled
        assert len(store.read_all()) == 0

    def test_iter_batches(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 95, seed=9)
        store = TupleStore(small_schema, directory=tmp_path)
        store.append(data)
        batches = list(store.iter_batches(30))
        assert [len(b) for b in batches] == [30, 30, 30, 5]
        assert np.array_equal(np.concatenate(batches), data)

    def test_mismatched_dtype_rejected(self, tmp_path, small_schema):
        store = TupleStore(small_schema, directory=tmp_path)
        with pytest.raises(StorageError):
            store.append(np.zeros(2))

    def test_negative_budget_rejected(self, small_schema):
        with pytest.raises(ValueError):
            TupleStore(small_schema, memory_budget_rows=-1)

    def test_empty_append_is_noop(self, tmp_path, small_schema):
        store = TupleStore(small_schema, directory=tmp_path)
        store.append(small_schema.empty(0))
        assert len(store) == 0


class TestSpillRegressions:
    """Regression tests for the three spill-layer bugs.

    Each of these fails on the pre-fix code: read-only ``read_all``
    arrays, whole-store materialization in ``iter_batches``, and
    over-budget ``replace`` batches kept in RAM.
    """

    def test_spillfile_read_all_is_writable(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 50, seed=11)
        spill = SpillFile(small_schema, tmp_path)
        spill.append(data)
        out = spill.read_all()
        assert out.flags.writeable, "read_all must return a mutable array"
        out["x"][0] = -1.0  # np.frombuffer over bytes would raise here
        # Mutating the returned copy never corrupts the file.
        assert np.array_equal(spill.read_all(), data)
        spill.delete()

    def test_store_read_all_writable_after_spill(self, tmp_path, small_schema):
        # multiset_remove (incremental deletion) sorts/masks the array it
        # gets back; a read-only view from the spill path broke it.
        data = simple_xy_data(small_schema, 80, seed=12)
        store = TupleStore(small_schema, memory_budget_rows=10, directory=tmp_path)
        store.append(data)
        assert store.spilled
        out = store.read_all()
        assert out.flags.writeable
        out[CLASS_COLUMN][:] = 0
        assert np.array_equal(store.read_all(), data)

    def test_iter_batches_peak_memory_is_o_batch(self, tmp_path, small_schema):
        n, batch_rows = 20_000, 500
        data = simple_xy_data(small_schema, n, seed=13)
        store = TupleStore(small_schema, memory_budget_rows=1, directory=tmp_path)
        store.append(data)
        assert store.spilled
        record = small_schema.record_size
        total_bytes = n * record
        batch_bytes = batch_rows * record
        tracemalloc.start()
        try:
            rows = 0
            for batch in store.iter_batches(batch_rows):
                assert len(batch) <= batch_rows
                rows += len(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == n
        # Streaming keeps the peak near one batch; materializing the
        # whole store first (the old read_all-based path) needs >= total.
        assert peak < total_bytes / 4, (
            f"iter_batches allocated {peak}B peak for a {total_bytes}B store "
            f"({batch_bytes}B batches) — not O(batch)"
        )

    def test_iter_batches_yields_writable_batches(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 60, seed=14)
        store = TupleStore(small_schema, memory_budget_rows=1, directory=tmp_path)
        store.append(data)
        for batch in store.iter_batches(25):
            assert batch.flags.writeable

    def test_replace_over_budget_spills(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 200, seed=15)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data[:20])
        assert not store.spilled
        # Pre-fix: an in-memory store kept ANY replacement in RAM,
        # breaking the budget the moment a big family came back.
        store.replace(data)
        assert store.spilled, "over-budget replace must spill like append"
        assert np.array_equal(store.read_all(), data)

    def test_replace_over_budget_on_spilled_store_stays_spilled(
        self, tmp_path, small_schema
    ):
        data = simple_xy_data(small_schema, 200, seed=16)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        assert store.spilled
        store.replace(data[:150])
        assert store.spilled
        assert np.array_equal(store.read_all(), data[:150])


class TestTupleStoreEdgeCases:
    def test_zero_budget_spills_first_append(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 10, seed=17)
        store = TupleStore(small_schema, memory_budget_rows=0, directory=tmp_path)
        store.append(data[:1])
        assert store.spilled
        store.append(data[1:])
        assert np.array_equal(store.read_all(), data)

    def test_replace_after_clear(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 60, seed=18)
        store = TupleStore(small_schema, memory_budget_rows=20, directory=tmp_path)
        store.append(data)
        store.clear()
        store.replace(data[:10])
        assert len(store) == 10
        assert np.array_equal(store.read_all(), data[:10])

    def test_spill_shrink_regrow(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 120, seed=19)
        store = TupleStore(small_schema, memory_budget_rows=40, directory=tmp_path)
        store.append(data)  # spill
        assert store.spilled
        store.replace(data[:10])  # shrink back into memory
        assert not store.spilled
        store.append(data[10:90])  # regrow past the budget: spill again
        assert store.spilled
        assert np.array_equal(store.read_all(), data[:90])

    def test_replace_with_empty(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 50, seed=20)
        store = TupleStore(small_schema, memory_budget_rows=10, directory=tmp_path)
        store.append(data)
        store.replace(small_schema.empty(0))
        assert len(store) == 0
        assert not store.spilled

    def test_fault_on_spill_write_surfaces_and_store_recovers(
        self, tmp_path, small_schema, monkeypatch
    ):
        data = simple_xy_data(small_schema, 30, seed=21)
        store = TupleStore(small_schema, memory_budget_rows=10, directory=tmp_path)

        def dying_append(self, batch):
            raise OSError(5, "injected device error on spill write")

        monkeypatch.setattr(SpillFile, "append", dying_append)
        with pytest.raises(OSError, match="spill write"):
            store.append(data)  # over budget -> must spill -> fault
        monkeypatch.undo()
        store.clear()  # a faulted store can still be torn down cleanly
        assert len(store) == 0
        store.append(data)
        assert np.array_equal(store.read_all(), data)

