"""CI-checked scan-count invariants, proven by I/O counters and traces.

The paper's cost claims, as machine-checkable statements:

* BOAT reads the database exactly **twice** — once to draw the sample,
  once for the cleanup scan — and that stays true when coarse criteria
  fail and subtrees are rebuilt (rebuilds work from held/family stores,
  never rescan).
* RainForest pays **one full scan per pass**, passes ≥ 1 per level.
* The in-memory reference builder pays exactly **one** scan.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.config import BoatConfig, RainForestConfig, SplitConfig
from repro.core import boat_build
from repro.observability import Tracer, read_jsonl
from repro.rainforest import build_rf_hybrid, build_rf_vertical
from repro.splits import ImpuritySplitSelection
from repro.storage import DiskTable, IOStats, MemoryTable
from repro.tree import build_reference_tree, tree_to_json

from .conftest import simple_xy_data


def traced_table(small_schema, n=6000, seed=2, rule="x"):
    io = IOStats()
    data = simple_xy_data(small_schema, n, seed=seed, rule=rule)
    return MemoryTable(small_schema, data, io_stats=io), io


class TestBoatTwoScans:
    def test_exactly_two_scans_when_no_leaf_fails(
        self, small_schema, gini_method, default_split_config
    ):
        table, io = traced_table(small_schema)
        config = BoatConfig(
            sample_size=500, bootstrap_repetitions=4, seed=3, trace=True
        )
        result = boat_build(table, gini_method, default_split_config, config)
        assert io.full_scans == 2
        trace = result.report.trace
        assert trace.total("full_scans") == 2
        assert trace.find("sample").full_scans == 1
        assert trace.find("cleanup").full_scans == 1
        # The in-memory phases never touch the database.
        for phase in ("bootstrap", "coarse", "finalize"):
            assert trace.find(phase).full_scans == 0, phase

    def test_still_two_scans_with_forced_failures(
        self, small_schema, gini_method, default_split_config
    ):
        # Adversarial recipe: a tiny sample, few bootstraps, and no
        # interval slack make coarse criteria fail and force rebuilds.
        table, io = traced_table(small_schema, n=8000, seed=6, rule="xy")
        config = BoatConfig(
            sample_size=200,
            bootstrap_repetitions=4,
            seed=6,
            interval_widening=0.0,
            interval_impurity_slack=0.0,
            trace=True,
        )
        result = boat_build(table, gini_method, default_split_config, config)
        assert result.report.finalize.rebuilds > 0, "recipe must force rebuilds"
        assert io.full_scans == 2  # rebuilds never rescan the database
        finalize_span = result.report.trace.find("finalize")
        assert finalize_span.attributes["rebuilds"] == result.report.finalize.rebuilds
        assert finalize_span.full_scans == 0

    def test_two_scans_on_disk_at_every_worker_count(
        self, small_schema, gini_method, default_split_config, tmp_path
    ):
        data = simple_xy_data(small_schema, 8000, seed=5, rule="xy")
        trees = {}
        for workers in (1, 2, 4):
            io = IOStats()
            table = DiskTable.create(tmp_path / f"w{workers}.tbl", small_schema, io)
            table.append(data)
            io.reset()
            tracer = Tracer(io)
            config = BoatConfig(
                sample_size=500,
                bootstrap_repetitions=4,
                seed=3,
                batch_rows=1000,
                n_workers=workers,
                parallel_backend="thread",
            )
            result = boat_build(
                table,
                gini_method,
                default_split_config,
                config,
                tracer=tracer,
            )
            assert io.full_scans == 2, workers
            assert tracer.report().total("full_scans") == 2, workers
            trees[workers] = tree_to_json(result.tree)
        assert trees[1] == trees[2] == trees[4]  # byte-identical output

    def test_parallel_cleanup_span_counts_one_scan(
        self, small_schema, gini_method, default_split_config, tmp_path
    ):
        io = IOStats()
        table = DiskTable.create(tmp_path / "t.tbl", small_schema, io)
        table.append(simple_xy_data(small_schema, 8000, seed=5, rule="x"))
        io.reset()
        tracer = Tracer(io)
        config = BoatConfig(
            sample_size=500,
            bootstrap_repetitions=4,
            seed=3,
            batch_rows=1000,
            n_workers=2,
            parallel_backend="thread",
        )
        boat_build(table, gini_method, default_split_config, config, tracer=tracer)
        # One reader in the driving thread: the table charges the whole
        # scan to the cleanup span while routing runs on two workers.
        cleanup = tracer.report().find("cleanup")
        assert cleanup.attributes["workers"] == 2
        assert cleanup.tuples_read == 8000
        assert cleanup.full_scans == 1


class TestRainForestScansPerLevel:
    @pytest.mark.parametrize("build", [build_rf_hybrid, build_rf_vertical])
    def test_one_scan_per_pass(
        self, build, small_schema, gini_method, default_split_config
    ):
        table, io = traced_table(small_schema, n=4000, rule="xy")
        tracer = Tracer(io)
        result = build(
            table, gini_method, default_split_config, RainForestConfig(), tracer
        )
        report = result.report
        assert len(report.levels) >= 2
        assert io.full_scans == report.total_passes
        trace = tracer.report()
        for level in report.levels:
            span = trace.find(f"level-{level.level}")
            assert span is not None
            assert span.full_scans == level.passes
            assert span.attributes["passes"] == level.passes
        root = trace.find(report.algorithm)
        assert root.full_scans == report.total_passes

    def test_tight_buffer_costs_extra_passes_not_extra_levels(
        self, small_schema, gini_method, default_split_config
    ):
        table, io = traced_table(small_schema, n=4000, rule="xy")
        tight = RainForestConfig(avc_buffer_entries=2000)
        result = build_rf_hybrid(table, gini_method, default_split_config, tight)
        assert result.report.total_passes > len(result.report.levels)
        assert io.full_scans == result.report.total_passes


class TestReferenceOneScan:
    def test_reference_build_costs_one_scan(
        self, small_schema, gini_method, default_split_config
    ):
        table, io = traced_table(small_schema)
        tracer = Tracer(io)
        with tracer.span("reference"):
            family = table.read_all()
            build_reference_tree(
                family, small_schema, gini_method, default_split_config
            )
        assert io.full_scans == 1
        assert tracer.report().find("reference").full_scans == 1


class TestCliTraceAcceptance:
    def test_boat_trace_jsonl_shows_two_full_scans(self, tmp_path, capsys):
        """Acceptance: ``repro build --trace`` on an Agrawal function-1
        table emits JSONL whose BOAT span records exactly 2 full scans."""
        table_path = str(tmp_path / "f1.tbl")
        tree_path = str(tmp_path / "tree.json")
        trace_path = str(tmp_path / "trace.jsonl")
        assert (
            cli_main(
                ["generate", table_path, "--n", "4000", "--function", "1"]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "build",
                    table_path,
                    tree_path,
                    "--sample-size",
                    "500",
                    "--trace",
                    trace_path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(trace_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        (build_line,) = [l for l in lines if l["name"] == "boat_build"]
        assert build_line["full_scans"] == 2
        report = read_jsonl(trace_path)
        assert report.find("boat_build").full_scans == 2
        assert {"sample", "bootstrap", "coarse", "cleanup", "finalize"} <= {
            span.name for span in report.spans()
        }

    def test_trace_to_stdout(self, tmp_path, capsys):
        table_path = str(tmp_path / "f1.tbl")
        tree_path = str(tmp_path / "tree.json")
        cli_main(["generate", table_path, "--n", "4000", "--function", "1"])
        assert (
            cli_main(
                ["build", table_path, tree_path, "--sample-size", "500", "--trace"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "boat_build" in out
        assert "cleanup" in out
