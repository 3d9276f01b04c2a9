"""Differential correctness: BOAT output == reference greedy builder.

The paper's central guarantee (§3) is that BOAT produces *exactly* the
tree the in-memory reference builder grows on the full data — and the
worker-pool layer must preserve that bit-for-bit at every worker count
and backend.  Each case here builds the reference tree and a BOAT tree
and compares them node by node.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build, cleanup_scan, sampling_phase, shared_cleanup_scan
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.parallel import WorkerPool
from repro.splits import ImpuritySplitSelection
from repro.storage import (
    CLASS_COLUMN,
    Attribute,
    AttributeKind,
    DiskTable,
    IOStats,
    MemoryTable,
    Schema,
)
from repro.tree import build_reference_tree, tree_diff, tree_to_json, trees_equal

from .conftest import simple_xy_data

N_TUPLES = 1600
SPLIT_CONFIG = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)

# 5 Agrawal functions x 2 seeds = 10 differential cases.
CASES = [
    (function_id, seed) for function_id in (1, 2, 3, 5, 7) for seed in (0, 1)
]


def _workload(function_id: int, seed: int) -> tuple[np.ndarray, Schema]:
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=seed
    )
    data = generator.generate(N_TUPLES)
    return data, generator.schema


def _boat_config(seed: int, n_workers: int = 1, backend: str = "auto") -> BoatConfig:
    return BoatConfig(
        sample_size=400,
        bootstrap_repetitions=5,
        bootstrap_subsample=300,
        seed=seed + 100,
        n_workers=n_workers,
        parallel_backend=backend,
    )


def _assert_same_tree(boat_tree, reference) -> None:
    assert trees_equal(boat_tree, reference), tree_diff(boat_tree, reference)


class TestDifferentialSerial:
    @pytest.mark.parametrize("function_id,seed", CASES)
    def test_boat_equals_reference(self, function_id, seed, gini_method):
        data, schema = _workload(function_id, seed)
        reference = build_reference_tree(data, schema, gini_method, SPLIT_CONFIG)
        result = boat_build(
            MemoryTable(schema, data), gini_method, SPLIT_CONFIG, _boat_config(seed)
        )
        assert result.report.mode == "boat"
        _assert_same_tree(result.tree, reference)


class TestDifferentialParallel:
    @pytest.mark.parametrize("function_id,seed", CASES)
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_parallel_boat_equals_reference(
        self, function_id, seed, n_workers, gini_method
    ):
        data, schema = _workload(function_id, seed)
        reference = build_reference_tree(data, schema, gini_method, SPLIT_CONFIG)
        result = boat_build(
            MemoryTable(schema, data),
            gini_method,
            SPLIT_CONFIG,
            _boat_config(seed, n_workers=n_workers, backend="thread"),
        )
        assert result.report.workers == n_workers
        assert result.report.parallel_backend == "thread"
        _assert_same_tree(result.tree, reference)


class TestBackendDeterminism:
    """Same seed + workload -> byte-identical serialized tree everywhere."""

    @pytest.mark.parametrize("function_id,seed", [(1, 0), (5, 1)])
    def test_all_backends_byte_identical(self, function_id, seed, gini_method):
        data, schema = _workload(function_id, seed)
        table = MemoryTable(schema, data)
        serialized = {}
        for backend, n_workers in [
            ("serial", 1),
            ("thread", 2),
            ("thread", 4),
            ("process", 2),
        ]:
            result = boat_build(
                table,
                gini_method,
                SPLIT_CONFIG,
                _boat_config(seed, n_workers=n_workers, backend=backend),
            )
            serialized[(backend, n_workers)] = tree_to_json(result.tree)
        baseline = serialized[("serial", 1)]
        for key, payload in serialized.items():
            assert payload == baseline, f"{key} diverged from the serial build"


class TestFrontierCompletionPool:
    """A decisive categorical root over frontier families that still need
    real splits: finalization completes them one way at any pool."""

    def _separable_table(self) -> tuple[np.ndarray, Schema]:
        rng = np.random.default_rng(0)
        n = 4000
        schema = Schema(
            [
                Attribute("group", AttributeKind.CATEGORICAL, domain_size=2),
                Attribute("x", AttributeKind.NUMERICAL),
            ],
            n_classes=2,
        )
        data = schema.empty(n)
        group = rng.integers(0, 2, n)
        x = rng.normal(size=n)
        # group is decisive (every bootstrap picks it exactly); x flips the
        # label in the tail so the frontier families still need real splits.
        data["group"] = group
        data["x"] = x
        data[CLASS_COLUMN] = group ^ (x > 1.2).astype(np.int64)
        return data, schema

    def test_tree_and_finalize_report_equal_at_any_pool(self, gini_method):
        data, schema = self._separable_table()
        config = SplitConfig(min_samples_split=10, min_samples_leaf=3, max_depth=8)
        reference = build_reference_tree(data, schema, gini_method, config)
        reports = []
        for n_workers in (1, 4):
            for backend in ("thread", "process"):
                boat_config = BoatConfig(
                    sample_size=600,
                    bootstrap_repetitions=8,
                    bootstrap_subsample=400,
                    seed=5,
                    inmemory_threshold=2500,
                    n_workers=n_workers,
                    parallel_backend=backend,
                )
                result = boat_build(
                    MemoryTable(schema, data), gini_method, config, boat_config
                )
                _assert_same_tree(result.tree, reference)
                reports.append(result.report.finalize)
        assert reports[0].frontier_completions > 0
        assert all(report == reports[0] for report in reports[1:])


# ---------------------------------------------------------------------------
# The cleanup driver: one loop for every worker count and backend
# ---------------------------------------------------------------------------

DRIVER_ROWS = 4000
DRIVER_BATCH = 300


def _driver_skeleton(data, schema, gini_method):
    """A fresh skeleton over ``data``: same seed, same skeleton, every call."""
    rng = np.random.default_rng(11)
    sample = data[rng.choice(len(data), 400, replace=False)]
    return sampling_phase(
        sample, schema, gini_method, SPLIT_CONFIG, _boat_config(0),
        len(data), rng,
    ).root


def _skeleton_bytes(root) -> list[bytes]:
    """Every node statistic and store, in preorder, as raw bytes."""
    out = []
    for node in root.nodes():
        arrays = [node.class_counts, *node.cat_counts.values()]
        arrays += list(node.bucket_counts.values())
        if node.below_counts is not None:
            arrays += [node.below_counts, node.above_counts]
        out.append(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
        for store in (node.held, node.family_store):
            if store is not None:
                out.append(store.read_all().tobytes())
    return out


def _driver_table(kind, data, schema, tmp_path):
    if kind == "memory":
        return MemoryTable(schema, data, io_stats=IOStats())
    path = tmp_path / "driver.tbl"
    if not path.exists():
        DiskTable.create(path, schema, IOStats()).append(data)
    mbps = 50.0 if kind == "throttled-disk" else 0.0
    return DiskTable.open(path, IOStats(), simulated_mbps=mbps)


class _CountingTable:
    """Counts the batches a scan has yielded, and how far reads ran ahead."""

    def __init__(self, inner, committed: list[int]):
        self.inner = inner
        self.committed = committed
        self.yielded = 0
        self.max_ahead = 0

    def scan(self, batch_rows):
        for batch in self.inner.scan(batch_rows):
            self.yielded += 1
            self.max_ahead = max(self.max_ahead, self.yielded - len(self.committed))
            yield batch


class TestCleanupDriver:
    @pytest.mark.parametrize("kind", ["memory", "disk", "throttled-disk"])
    @pytest.mark.parametrize("bounds", [(0, None), (700, 3100)])
    def test_any_pool_matches_the_serial_scan(
        self, kind, bounds, gini_method, tmp_path
    ):
        generator = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1), seed=3)
        data, schema = generator.generate(DRIVER_ROWS), generator.schema
        start_row, stop_row = bounds

        def scan(pool):
            root = _driver_skeleton(data, schema, gini_method)
            offsets: list[int] = []
            table = _driver_table(kind, data, schema, tmp_path)
            cleanup_scan(
                root, table, schema, DRIVER_BATCH, pool,
                start_row=start_row, progress=offsets.append, stop_row=stop_row,
            )
            state = _skeleton_bytes(root)
            root.release()
            return state, offsets

        serial_state, serial_offsets = scan(None)
        assert len(serial_state) > 3, "the skeleton must have internal nodes"
        assert serial_offsets[-1] == (stop_row or DRIVER_ROWS)
        for backend in ("thread", "process"):
            for n_workers in (1, 2, 4):
                with WorkerPool(n_workers, backend) as pool:
                    state, offsets = scan(pool)
                assert offsets == serial_offsets, (backend, n_workers)
                assert state == serial_state, (backend, n_workers)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_read_ahead_is_bounded_by_the_pool_window(
        self, n_workers, gini_method
    ):
        data, schema = _workload(1, 3)
        root = _driver_skeleton(data, schema, gini_method)
        committed: list[int] = []
        table = _CountingTable(MemoryTable(schema, data), committed)
        with WorkerPool(n_workers, "thread") as pool:
            cleanup_scan(
                root, table, schema, 100, pool, progress=committed.append
            )
        root.release()
        assert len(committed) == table.yielded == len(data) // 100
        assert table.max_ahead == 2 * n_workers

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_failing_sink_propagates_and_leaves_no_threads(
        self, backend, small_schema
    ):
        class SinkFailure(Exception):
            pass

        table = MemoryTable(small_schema, simple_xy_data(small_schema, 1000))
        commits: list[int] = []

        def sink(batch, offset):
            if offset == 300:
                raise SinkFailure(offset)
            return lambda: commits.append(offset)

        with WorkerPool(2, backend) as pool:
            with pytest.raises(SinkFailure):
                shared_cleanup_scan(table, [sink], 100, pool=pool)
        assert commits == [0, 100, 200]
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-worker")
        ]
