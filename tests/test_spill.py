"""Tests for repro.storage.spill (SpillFile, TupleStore)."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import CLASS_COLUMN, IOStats, SpillFile, TupleStore
from repro.storage.spill import SPILL_SCAN_ROWS

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
        """Removing all but an in-budget remainder brings a spilled store
        back into RAM."""
        data = simple_xy_data(small_schema, 100, seed=7)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        assert store.spilled
        store.remove(data[20:])
        assert not store.spilled
        assert np.array_equal(store.read_all(), data[:20])

    def test_replace_in_memory(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 30, seed=8)
        store = TupleStore(small_schema, memory_budget_rows=100, directory=tmp_path)
        store.append(data)
        store.clear()
        store.append(data[5:10])
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
    over-budget contents kept in RAM after the store was emptied.
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
        store.clear()
        store.append(data)
        assert store.spilled, "over-budget contents must spill"
        assert np.array_equal(store.read_all(), data)

    def test_replace_over_budget_on_spilled_store_stays_spilled(
        self, tmp_path, small_schema
    ):
        data = simple_xy_data(small_schema, 200, seed=16)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        assert store.spilled
        store.remove(data[150:])
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
        store.append(data[:10])
        assert len(store) == 10
        assert np.array_equal(store.read_all(), data[:10])

    def test_spill_shrink_regrow(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 120, seed=19)
        store = TupleStore(small_schema, memory_budget_rows=40, directory=tmp_path)
        store.append(data)  # spill
        assert store.spilled
        store.remove(data[10:])  # shrink back into memory
        assert not store.spilled
        store.append(data[10:90])  # regrow past the budget: spill again
        assert store.spilled
        assert np.array_equal(store.read_all(), data[:90])

    def test_replace_with_empty(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 50, seed=20)
        store = TupleStore(small_schema, memory_budget_rows=10, directory=tmp_path)
        store.append(data)
        store.remove(data)
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



def oracle_remove(rows: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Row-by-row reference: the earliest byte-equal row goes per needle."""
    pending: dict[bytes, int] = {}
    for record in needles:
        pending[record.tobytes()] = pending.get(record.tobytes(), 0) + 1
    keep = np.ones(len(rows), dtype=bool)
    for i, record in enumerate(rows):
        if pending.get(record.tobytes(), 0):
            pending[record.tobytes()] -= 1
            keep[i] = False
    if any(pending.values()):
        raise LookupError("needle not present")
    return rows[keep]


def few_distinct_rows(schema, n: int, rng) -> np.ndarray:
    """Rows over few distinct records, with -0.0, 0.0 and two NaN payloads."""
    rows = schema.empty(n)
    nan_a = np.float64(np.nan)
    nan_b = np.frombuffer(np.uint64(0x7FF8000000000123).tobytes(), np.float64)[0]
    rows["x"] = rng.choice(np.array([0.0, -0.0, nan_a, nan_b, 1.5]), n)
    rows["y"] = rng.integers(0, 2, n).astype(np.float64)
    rows["color"] = rng.integers(0, 2, n, dtype=np.int32)
    rows[CLASS_COLUMN] = rng.integers(0, 2, n, dtype=np.int32)
    return rows


class TestRemove:
    """``TupleStore.remove`` against the row-by-row oracle."""

    @pytest.mark.parametrize("budget", [1 << 20, 60, 0])
    def test_matches_oracle_over_random_layouts(self, tmp_path, small_schema, budget):
        rng = np.random.default_rng(budget + 3)
        for _ in range(40):
            store = TupleStore(small_schema, budget, tmp_path)
            expected = small_schema.empty(0)
            for _ in range(int(rng.integers(1, 5))):
                # Appends in random chunk sizes, then removes, interleaved.
                for _ in range(int(rng.integers(1, 4))):
                    chunk = few_distinct_rows(small_schema, int(rng.integers(1, 30)), rng)
                    store.append(chunk)
                    expected = np.concatenate([expected, chunk])
                if not len(expected):
                    continue
                take = rng.integers(0, len(expected), int(rng.integers(1, 12)))
                needles = expected[take]
                try:
                    expected_after = oracle_remove(expected, needles)
                except LookupError:
                    continue  # duplicate picks beyond the stored multiplicity
                store.remove(needles)
                expected = expected_after
                assert len(store) == len(expected)
                assert store.read_all().tobytes() == expected.tobytes()
                assert np.concatenate(
                    [*store.iter_batches(7), small_schema.empty(0)]
                ).tobytes() == expected.tobytes()
            store.clear()

    @pytest.mark.parametrize("budget", [1 << 20, 0])
    def test_foreign_needle_leaves_store_unchanged(self, tmp_path, small_schema, budget):
        rng = np.random.default_rng(7)
        store = TupleStore(small_schema, budget, tmp_path)
        rows = few_distinct_rows(small_schema, 50, rng)
        store.append(rows[:20])
        store.append(rows[20:])
        store.remove(rows[:3])  # some chunk now carries dead rows
        before = store.read_all().tobytes()
        foreign = rows[:2].copy()
        foreign["y"][1] = 9.0
        with pytest.raises(StorageError):
            store.remove(foreign)
        assert store.read_all().tobytes() == before
        # ... and -0.0 is not 0.0: the bitwise twin of a stored row is foreign.
        twin = rows[:1].copy()
        twin["x"] = 0.0 if np.signbit(twin["x"][0]) else -0.0
        if twin.tobytes() not in {r.tobytes() for r in store.read_all()}:
            with pytest.raises(StorageError):
                store.remove(twin)
        assert store.read_all().tobytes() == before
        store.clear()

    def test_dead_rows_then_compaction_and_drop(self, small_schema):
        data = simple_xy_data(small_schema, 40, seed=30)
        store = TupleStore(small_schema)
        store.append(data[:20])
        store.append(data[20:])
        store.remove(data[:5])  # 5 of 20 dead: masked, not copied
        assert len(store._chunks) == 2 and store._dead[0] is not None
        store.remove(data[5:12])  # 12 of 20 dead: compacted
        assert store._dead[0] is None and len(store._chunks[0]) == 8
        store.remove(data[12:20])  # all dead: chunk dropped
        assert len(store._chunks) == 1
        assert store.read_all().tobytes() == data[20:].tobytes()

    def test_fingerprints_are_lazy(self, small_schema):
        data = simple_xy_data(small_schema, 30, seed=31)
        store = TupleStore(small_schema)
        store.append(data[:10])
        assert store._fingerprints is None  # builds never pay for them
        store.remove(data[:1])
        store.append(data[10:])
        assert [len(f) for f in store._fingerprints] == [len(c) for c in store._chunks]

    def test_stale_removal_refused(self, small_schema):
        data = simple_xy_data(small_schema, 30, seed=32)
        store = TupleStore(small_schema)
        store.append(data)
        removal = store.locate(data[:2])
        store.append(data[:1])
        with pytest.raises(StorageError):
            removal.commit()
        assert len(store) == 31

    def test_remove_within_budget_unspills(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 100, seed=33)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        assert store.spilled
        store.remove(data[20:])
        assert not store.spilled
        assert store.read_all().tobytes() == data[:20].tobytes()

    def test_remove_over_budget_stays_spilled(self, tmp_path, small_schema):
        data = simple_xy_data(small_schema, 200, seed=34)
        store = TupleStore(small_schema, memory_budget_rows=50, directory=tmp_path)
        store.append(data)
        store.remove(data[150:])
        assert store.spilled
        assert store.read_all().tobytes() == data[:150].tobytes()
        store.remove(data[:150])
        assert len(store) == 0 and not store.spilled
        assert os.listdir(tmp_path) == []

    def test_spilled_remove_peak_memory_is_o_batch(self, tmp_path, small_schema):
        n = 50_000
        data = simple_xy_data(small_schema, n, seed=35)
        store = TupleStore(small_schema, memory_budget_rows=1, directory=tmp_path)
        store.append(data)
        rng = np.random.default_rng(36)
        needles = data[np.sort(rng.choice(n, 200, replace=False))]
        expected = oracle_remove(data, needles)
        record = small_schema.record_size
        batch_bytes = SPILL_SCAN_ROWS * record
        tracemalloc.start()
        try:
            store.remove(needles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.spilled
        assert store.read_all().tobytes() == expected.tobytes()
        # A batch read, its fingerprints and its survivors, plus the
        # needles; loading the whole file (the old path) needs 4x the bound.
        bound = 3 * batch_bytes + needles.nbytes
        assert 4 * bound < n * record
        assert peak < bound, f"spilled remove peaked at {peak}B (bound {bound}B)"
