"""CLI coverage for the sharding surface: ``shard``, ``bench``, and the
``build --shards/--shard-transport`` flags added with ``repro.shard``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.storage import IOStats, MemoryTable, ShardedTable, write_csv
from repro.datagen import AgrawalConfig, AgrawalGenerator


@pytest.fixture
def flat_table(tmp_path) -> str:
    path = str(tmp_path / "train.tbl")
    assert main(["generate", path, "--n", "5000", "--function", "2",
                 "--noise", "0.05"]) == 0
    return path


BUILD_OPTS = ["--sample-size", "1200", "--max-depth", "5", "--min-split", "20"]


class TestShardCommand:
    def test_partition_tbl(self, tmp_path, flat_table, capsys):
        out = str(tmp_path / "shards")
        assert main(["shard", flat_table, out, "--shards", "3"]) == 0
        captured = capsys.readouterr().out
        assert "3 shard(s)" in captured
        table = ShardedTable.open(out, IOStats())
        assert len(table) == 5000
        assert table.n_shards == 3
        table.close()

    def test_partition_csv(self, tmp_path, capsys):
        gen = AgrawalGenerator(AgrawalConfig(function_id=1), seed=4)
        csv_path = str(tmp_path / "train.csv")
        write_csv(csv_path, MemoryTable(gen.schema, gen.generate(400)))
        out = str(tmp_path / "shards")
        assert main(["shard", csv_path, out, "--shards", "2",
                     "--label", "class_label"]) == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_csv_without_label_errors(self, tmp_path):
        csv_path = str(tmp_path / "x.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("a,b\n1,2\n")
        assert main(["shard", csv_path, str(tmp_path / "s")]) == 2

    def test_hash_placement(self, tmp_path, flat_table):
        out = str(tmp_path / "shards")
        assert main(["shard", flat_table, out, "--shards", "2",
                     "--placement", "hash"]) == 0
        table = ShardedTable.open(out, IOStats())
        assert table.manifest.placement == "hash"
        table.close()


class TestBuildSharded:
    def _trees_match(self, a_path, b_path):
        with open(a_path, encoding="utf-8") as fh:
            a = json.load(fh)
        with open(b_path, encoding="utf-8") as fh:
            b = json.load(fh)
        return a == b

    def test_build_from_shard_directory(self, tmp_path, flat_table, capsys):
        shards = str(tmp_path / "shards")
        assert main(["shard", flat_table, shards, "--shards", "2"]) == 0
        flat_out = str(tmp_path / "flat.json")
        shard_out = str(tmp_path / "sharded.json")
        assert main(["build", flat_table, flat_out, *BUILD_OPTS]) == 0
        assert main(["build", shards, shard_out, *BUILD_OPTS]) == 0
        assert "per-shard scans [2, 2]" in capsys.readouterr().out
        assert self._trees_match(flat_out, shard_out)

    def test_build_shards_on_the_fly(self, tmp_path, flat_table):
        flat_out = str(tmp_path / "flat.json")
        fly_out = str(tmp_path / "fly.json")
        assert main(["build", flat_table, flat_out, *BUILD_OPTS]) == 0
        assert main(["build", flat_table, fly_out, "--shards", "3",
                     *BUILD_OPTS]) == 0
        assert self._trees_match(flat_out, fly_out)

    def test_quest_over_shards(self, tmp_path, flat_table):
        shards = str(tmp_path / "shards")
        assert main(["shard", flat_table, shards, "--shards", "2"]) == 0
        flat_out = str(tmp_path / "flat.json")
        shard_out = str(tmp_path / "sharded.json")
        assert main(["build", flat_table, flat_out, "--method", "quest",
                     *BUILD_OPTS]) == 0
        assert main(["build", shards, shard_out, "--method", "quest",
                     *BUILD_OPTS]) == 0
        assert self._trees_match(flat_out, shard_out)

    def test_shards_flag_on_directory_errors(self, tmp_path, flat_table):
        shards = str(tmp_path / "shards")
        assert main(["shard", flat_table, shards, "--shards", "2"]) == 0
        assert main(["build", shards, str(tmp_path / "o.json"),
                     "--shards", "2"]) == 2

    def test_checkpoint_with_shards_builds(self, tmp_path, flat_table):
        # Sharded builds checkpoint at the work-unit level; an
        # uninterrupted build consumes its checkpoint on success.
        flat_out = str(tmp_path / "flat.json")
        shard_out = str(tmp_path / "sharded.json")
        ckpt = tmp_path / "ck"
        assert main(["build", flat_table, flat_out, *BUILD_OPTS]) == 0
        assert main(["build", flat_table, shard_out, "--shards", "2",
                     "--checkpoint", str(ckpt), *BUILD_OPTS]) == 0
        assert self._trees_match(flat_out, shard_out)
        assert not (ckpt / "units.json").exists()

    def test_invalid_shard_count_errors(self, tmp_path, flat_table):
        assert main(["build", flat_table, str(tmp_path / "o.json"),
                     "--shards", "0"]) == 2


class TestBenchCommand:
    def test_flat_and_sharded(self, tmp_path, flat_table, capsys):
        assert main(["bench", flat_table, "--repeat", "1"]) == 0
        assert "rows/s" in capsys.readouterr().out
        shards = str(tmp_path / "shards")
        assert main(["shard", flat_table, shards, "--shards", "2"]) == 0
        assert main(["bench", shards, "--repeat", "1"]) == 0
        assert "sharded (2 shards)" in capsys.readouterr().out
