"""Train-in-database differential: SQL-backed builds ≡ the flat build.

The acceptance bar for the SQL backend is the repo's standard one: every
execution mode produces a *byte-identical* serialized tree.  Covered
here, on F1–F10 Agrawal workloads:

* sqlite-backed builds in both modes — export-scan (rows stream out of
  the database through the normal cleanup path) and pushdown (per-node
  statistics computed as grouped aggregation SQL, only held/family rows
  exported) — against the in-memory reference build;
* QUEST over a SqlTable (plain scans; QUEST's float moments cannot be
  pushed down, so the pushdown knob raises for QUEST — see
  ``tests/test_quest_boat.py``);
* a star-join workload trained end-to-end from a ``from_query`` view
  with zero materialized rows and exactly two logical scans;
* the CLI round trip: ``generate --backend sql`` + ``build`` with
  auto-detection and ``--sql-pushdown``.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import (
    Attribute,
    AttributeKind,
    IOStats,
    MemoryTable,
    Schema,
    SqlTable,
)
from repro.tree import build_reference_tree, tree_to_json, trees_equal

pytestmark = pytest.mark.sql

N_TUPLES = 1200
SPLIT_CONFIG = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)
FUNCTIONS = list(range(1, 11))


def _workload(function_id: int) -> tuple[np.ndarray, Schema]:
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=function_id
    )
    return generator.generate(N_TUPLES), generator.schema


def _boat_config(seed: int, **overrides) -> BoatConfig:
    settings = dict(
        sample_size=400,
        bootstrap_repetitions=5,
        bootstrap_subsample=300,
        seed=seed + 100,
    )
    settings.update(overrides)
    return BoatConfig(**settings)


def _sql_table(schema: Schema, data: np.ndarray) -> SqlTable:
    table = SqlTable.create(":memory:", schema, io_stats=IOStats())
    table.append(data)
    return table


class TestSqlBuildDifferential:
    @pytest.mark.parametrize("function_id", FUNCTIONS)
    def test_both_sql_modes_byte_identical_to_flat(self, function_id, gini_method):
        data, schema = _workload(function_id)
        flat = boat_build(
            MemoryTable(schema, data),
            gini_method,
            SPLIT_CONFIG,
            _boat_config(function_id),
        )
        export = boat_build(
            _sql_table(schema, data),
            gini_method,
            SPLIT_CONFIG,
            _boat_config(function_id),
        )
        pushdown = boat_build(
            _sql_table(schema, data),
            gini_method,
            SPLIT_CONFIG,
            _boat_config(function_id, sql_pushdown=True),
        )
        baseline = tree_to_json(flat.tree)
        assert tree_to_json(export.tree) == baseline
        assert tree_to_json(pushdown.tree) == baseline

    @pytest.mark.parametrize("function_id", FUNCTIONS)
    def test_quest_build_over_sql_table(self, function_id):
        data, schema = _workload(function_id)
        config = _boat_config(function_id)
        flat = boat_build(
            MemoryTable(schema, data), QuestSplitSelection(), SPLIT_CONFIG, config
        )
        sql = boat_build(
            _sql_table(schema, data), QuestSplitSelection(), SPLIT_CONFIG, config
        )
        assert tree_to_json(sql.tree) == tree_to_json(flat.tree)

    def test_pushdown_build_scans_exactly_twice(self, gini_method):
        data, schema = _workload(3)
        io = IOStats()
        table = SqlTable.create(":memory:", schema, io_stats=io)
        table.append(data)
        io.reset()
        boat_build(
            table, gini_method, SPLIT_CONFIG, _boat_config(3, sql_pushdown=True)
        )
        assert io.full_scans == 2


class TestStarJoinInDatabase:
    """The paper's warehouse scenario, entirely inside the DBMS."""

    def _warehouse(self):
        rng = np.random.default_rng(11)
        conn = sqlite3.connect(":memory:", check_same_thread=False)
        conn.execute("CREATE TABLE dim (weight REAL, grp INTEGER)")
        conn.executemany(
            "INSERT INTO dim VALUES (?, ?)",
            [
                (float(w), int(g))
                for w, g in zip(
                    rng.uniform(0, 10, 50), rng.integers(0, 3, 50)
                )
            ],
        )
        conn.execute("CREATE TABLE fact (key INTEGER, amount REAL)")
        conn.executemany(
            "INSERT INTO fact VALUES (?, ?)",
            [
                (int(k), float(a))
                for k, a in zip(
                    rng.integers(0, 50, 2000), rng.uniform(0, 40, 2000)
                )
            ],
        )
        conn.commit()
        schema = Schema(
            [
                Attribute("weight", AttributeKind.NUMERICAL),
                Attribute("amount", AttributeKind.NUMERICAL),
                Attribute("grp", AttributeKind.CATEGORICAL, 3),
            ],
            n_classes=2,
        )
        query = (
            "SELECT d.weight AS weight, f.amount AS amount, d.grp AS grp, "
            "(CASE WHEN d.weight * 10 + f.amount > 80 THEN 1 ELSE 0 END) "
            "AS class_label, f.rowid AS row_key "
            "FROM fact f JOIN dim d ON d.rowid = f.key + 1"
        )
        return conn, query, schema

    def test_trains_without_materialization(self, gini_method):
        conn, query, schema = self._warehouse()
        io = IOStats()
        view = SqlTable.from_query(conn, query, schema, "row_key", io_stats=io)
        rows = view.read_all()
        io.reset()
        result = boat_build(
            view, gini_method, SPLIT_CONFIG, _boat_config(0, sql_pushdown=True)
        )
        # BOAT's §1/§7 promise, IOStats-asserted: the join is executed as
        # exactly two logical scans and zero training rows are written.
        assert io.full_scans == 2
        assert io.tuples_written == 0
        reference = build_reference_tree(rows, schema, gini_method, SPLIT_CONFIG)
        assert trees_equal(result.tree, reference)
        tables = {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert tables == {"fact", "dim"}


class TestCliSqlBackend:
    def test_generate_build_round_trip(self, tmp_path, capsys):
        db = tmp_path / "train.db"
        tbl = tmp_path / "train.tbl"
        args = ["--n", "1500", "--function", "2", "--seed", "4"]
        assert cli_main(["generate", str(db), "--backend", "sql", *args]) == 0
        assert cli_main(["generate", str(tbl), *args]) == 0
        build = [
            "--sample-size", "400", "--bootstraps", "5", "--max-depth", "6",
        ]
        out_disk = tmp_path / "disk.json"
        out_sql = tmp_path / "sql.json"
        out_push = tmp_path / "push.json"
        assert cli_main(["build", str(tbl), str(out_disk), *build]) == 0
        # --backend auto detects the sqlite header; pushdown rides along.
        assert cli_main(["build", str(db), str(out_sql), *build]) == 0
        assert (
            cli_main(
                ["build", str(db), str(out_push), "--sql-pushdown", *build]
            )
            == 0
        )
        capsys.readouterr()
        assert out_sql.read_bytes() == out_disk.read_bytes()
        assert out_push.read_bytes() == out_disk.read_bytes()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_pushdown_rejected_for_checkpointed_build(
        self, flag, tmp_path, capsys
    ):
        db = tmp_path / "x.db"
        ckpt = tmp_path / "ckpt"
        args = ["--n", "1500", "--function", "2", "--seed", "4"]
        assert cli_main(["generate", str(db), "--backend", "sql", *args]) == 0
        capsys.readouterr()
        code = cli_main(
            [
                "build", str(db), str(tmp_path / "out.json"),
                "--sample-size", "400", "--sql-pushdown", flag, str(ckpt),
            ]
        )
        assert code == 1
        assert "error: sql_pushdown" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.db"]

    def test_sql_backend_rejected_for_sharded_build(self, tmp_path, capsys):
        code = cli_main(
            [
                "build", str(tmp_path / "x.db"), str(tmp_path / "t.json"),
                "--shards", "2", "--backend", "sql",
            ]
        )
        assert code == 2
        assert "flat tables" in capsys.readouterr().err
