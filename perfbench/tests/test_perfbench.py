"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They build only tiny models, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hooks  # noqa: E402
import program  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- metric names --------------------------------------------------------------


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(spec.WORKLOADS)


def test_benchmark_json_shape():
    data = benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in data["per_layer"])


class _FakeRecorder:
    """Every hook present, no spans: the layer table's keys are all that matter."""

    counters: dict = {}

    def total(self, name):
        return 1.0

    def has(self, name):
        return True


def test_build_layer_metrics_are_declared():
    build = {"wall_s": 2.0, "cpu_s": 1.0, "rows": 10, "bytes_read": 1280,
             "full_scans": 2, "row_bytes": 64}
    names = program.layer_metrics(_FakeRecorder(), build, 1.0, 5.0)
    assert set(names) <= {m["name"] for m in benchmark_json()["per_layer"]}


# -- correctness checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_tree():
    from repro import (
        AgrawalConfig, AgrawalGenerator, ImpuritySplitSelection, SplitConfig,
        build_reference_tree,
    )

    gen = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.05), seed=3)
    data = gen.generate(2000)
    tree = build_reference_tree(data, gen.schema, ImpuritySplitSelection("gini"),
                                SplitConfig(min_samples_split=100))
    return tree, data


def test_fingerprint_ignores_node_numbering(small_tree):
    tree, _ = small_tree
    before = program.fingerprint(tree)
    for node in tree.nodes():
        node.node_id += 1000
    try:
        assert program.fingerprint(tree) == before
    finally:
        for node in tree.nodes():
            node.node_id -= 1000


def test_corrupted_tree_fails_its_check(small_tree):
    tree, _ = small_tree
    good = program.fingerprint(tree)
    assert checks.check_fingerprint(good, good) == []
    leaf = next(tree.leaves())
    leaf.class_counts[0] += 1
    try:
        assert checks.check_fingerprint(program.fingerprint(tree), good)
    finally:
        leaf.class_counts[0] -= 1
    split_node = next(tree.internal_nodes())
    original = split_node.split
    try:
        split_node.split = type(original)(original.attribute_index,
                                          np.nextafter(original.value, np.inf))
        assert checks.check_fingerprint(program.fingerprint(tree), good)
    finally:
        split_node.split = original
    assert program.fingerprint(tree) == good


def test_wrong_label_fails_its_check(small_tree):
    tree, data = small_tree
    labels = [int(v) for v in tree.compile().predict(data[:32])]
    assert checks.check_labels(labels, labels) == []
    wrong = list(labels)
    wrong[5] = 1 - wrong[5]
    assert checks.check_labels(wrong, labels)
    assert checks.check_labels(labels[:-1], labels)


def test_scan_and_accuracy_checks():
    assert checks.check_scans({"full_scans": 2}) == []
    assert checks.check_scans({"full_scans": 3})
    assert checks.check_accuracy(0.9995, 1.0) == []
    assert checks.check_accuracy(0.99, 1.0)


def test_monotone_versions():
    assert checks.check_monotone([1, 2, 3], strict=True) == []
    assert checks.check_monotone([1, 1, 2], strict=True)
    assert checks.check_monotone([1, 1, 2], strict=False) == []
    assert checks.check_monotone([2, 1], strict=False)


# -- percentile and sample-count rule ------------------------------------------


@pytest.mark.parametrize("n, level", [
    (1, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (1009, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert stats.tail_level(n) == level
    if level is not None:
        beyond = sum(1 for v in range(1, n + 1) if v > stats.nearest_rank(range(1, n + 1), level))
        assert beyond >= stats.TAIL_MIN_BEYOND


def test_tail_reports_value_label_and_count():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, "p90", 100)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, "max", 3)
    assert stats.nearest_rank(values, 50) == 50.0
    assert stats.median([1.0, 2.0, 10.0]) == 2.0


# -- serve_predict rate search ------------------------------------------------------


@pytest.mark.parametrize("capacity", [20.0, 33.0, 41.7, 100.0, 5000.0])
def test_rate_search_resolves_capacity_to_nine_percent(capacity):
    import workloads

    tried = []

    def meets_slo(rate):
        tried.append(rate)
        return rate <= capacity

    found = workloads.rate_search(meets_slo)
    assert found <= capacity
    if capacity < workloads.MAX_RPS:
        assert capacity / found < 2 ** (1 / 2 ** workloads.REFINE_STEPS) + 1e-9
    else:
        assert found == workloads.MAX_RPS
    assert len(tried) <= 7 + workloads.REFINE_STEPS


# -- hooks -----------------------------------------------------------------------


def test_missing_hook_point_is_reported_not_zeroed():
    rec = hooks.install(hooks.Recorder("t"), points=(
        ("repro.storage.table:DiskTable.no_such_method", "storage.scan"),
    ))
    assert rec.missing == ["repro.storage.table:DiskTable.no_such_method"]
    assert not rec.has("storage.scan")
    build = {"wall_s": 2.0, "cpu_s": 1.0, "rows": 10, "bytes_read": 1280,
             "full_scans": 2, "row_bytes": 64}
    assert program.layer_metrics(rec, build, 1.0, 5.0)["storage.scan_s"] is None


def test_hooks_time_outermost_calls_only():
    rec = hooks.Recorder("t")

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = rec.wrap(fact, "tree.builder.build_reference_tree")
    assert wrapped(5) == 120
    assert len(rec.spans) == 1
    assert rec.counters["tree.builder.build_reference_tree.calls"] == 1


# -- the command's contract --------------------------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
