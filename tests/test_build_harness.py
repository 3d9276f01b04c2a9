"""One build harness: the BOAT drivers behave alike and refuse alike.

The flat build, the flat resume, the sharded build and the sharded resume
share their phase timing, ``finalize`` span, checkpoint guard rails and
error mapping (``repro.core.boat.BuildHarness``,
``repro.recovery.checkpoint.load_resumable``), and the two sharded
drivers share one cleanup-and-merge phase.  These tests pin the shared
surface per driver, the checkpoint-kind refusal that used to escape as a
raw ``AttributeError``, and the knobs ``forest_build`` used to ignore.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import RecoveryError, ReproError, ShardError, StorageError
from repro.forest import forest_build, forest_to_json
from repro.observability import Tracer
from repro.recovery import resume_build
from repro.shard import (
    ElasticPolicy,
    FaultyTransport,
    make_transport,
    resume_sharded_build,
    sharded_boat_build,
)
from repro.splits import ImpuritySplitSelection
from repro.storage import (
    DiskTable,
    FaultyTable,
    IOStats,
    ShardedTable,
    partition_table,
)
from repro.tree import tree_to_json

N_ROWS = 4098
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=5)
GINI = ImpuritySplitSelection("gini")


def _config(checkpoint_dir=None, **overrides) -> BoatConfig:
    return BoatConfig(
        sample_size=800,
        bootstrap_repetitions=8,
        seed=5,
        batch_rows=512,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_batches=1,
        **overrides,
    )


@pytest.fixture(scope="module")
def table_path(tmp_path_factory) -> str:
    data = AgrawalGenerator(
        AgrawalConfig(function_id=6, noise=0.05), seed=23
    ).generate(N_ROWS)
    schema = AgrawalGenerator(AgrawalConfig(function_id=6), seed=0).schema
    path = str(tmp_path_factory.mktemp("flat") / "train.tbl")
    with DiskTable.create(path, schema, IOStats()) as table:
        table.append(data)
    return path


@pytest.fixture
def flat_table(table_path):
    table = DiskTable.open(table_path, IOStats())
    yield table
    table.close()


@pytest.fixture(scope="module")
def reference_json(table_path) -> str:
    with DiskTable.open(table_path, IOStats()) as table:
        return tree_to_json(boat_build(table, GINI, SPLIT, _config()).tree)


def _interrupt_sharded(tmp_path, flat_table):
    """A checkpointed 2-shard build whose shard-1 unit dies: shard 0's
    unit lands in the checkpoint, as if the coordinator were killed."""
    shard_dir = tmp_path / "shards"
    ckpt = str(tmp_path / "ckpt")
    partition_table(flat_table, shard_dir, 2)
    table = ShardedTable.open(shard_dir, IOStats())
    faulty = FaultyTransport(
        make_transport("inprocess", table.shard_paths),
        "drop",
        shard_id=1,
        at_request=1,
        shard_paths=table.shard_paths,
    )
    try:
        with pytest.raises(ShardError, match="failed permanently"):
            sharded_boat_build(
                table,
                GINI,
                SPLIT,
                _config(ckpt),
                transport=faulty,
                elastic=ElasticPolicy(failover=False, local_fallback=False),
            )
    finally:
        faulty.close()
        table.close()
    return shard_dir, ckpt


def _flat_build(tmp_path, flat_table):
    return boat_build(
        flat_table, GINI, SPLIT, _config(), tracer=Tracer(flat_table.io_stats)
    )


def _flat_resume(tmp_path, flat_table):
    ckpt = str(tmp_path / "ckpt")
    faulty = FaultyTable(flat_table, "ioerror", fail_on_scan=1, fail_at_row=3000)
    with pytest.raises(StorageError, match="injected"):
        boat_build(faulty, GINI, SPLIT, _config(ckpt))
    return resume_build(
        flat_table, GINI, SPLIT, _config(ckpt), tracer=Tracer(flat_table.io_stats)
    )


def _sharded(entry, shard_dir, checkpoint_dir=None):
    table = ShardedTable.open(shard_dir, IOStats())
    try:
        return entry(
            table,
            GINI,
            SPLIT,
            _config(checkpoint_dir),
            tracer=Tracer(table.io_stats),
        )
    finally:
        table.close()


def _sharded_build(tmp_path, flat_table):
    partition_table(flat_table, tmp_path / "shards", 2)
    return _sharded(sharded_boat_build, tmp_path / "shards")


def _sharded_resume(tmp_path, flat_table):
    shard_dir, ckpt = _interrupt_sharded(tmp_path, flat_table)
    return _sharded(resume_sharded_build, shard_dir, ckpt)


#: driver → (run it, its first phase in ``report.wall_seconds``)
DRIVERS = {
    "boat_build": (_flat_build, "sampling"),
    "resume_build": (_flat_resume, "restore"),
    "sharded_boat_build": (_sharded_build, "sampling"),
    "resume_sharded_build": (_sharded_resume, "restore"),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_behave_alike(driver, tmp_path, flat_table, reference_json):
    run, first_phase = DRIVERS[driver]
    result = run(tmp_path, flat_table)
    assert tree_to_json(result.tree) == reference_json
    finalize = result.report.trace.find("finalize")
    assert finalize is not None
    assert {
        "confirmed_splits",
        "frontier_completions",
        "rebuilds",
        "tree_nodes",
    } <= set(finalize.attributes)
    assert finalize.attributes["tree_nodes"] == result.tree.n_nodes
    assert result.report.finalize is not None
    assert set(result.report.wall_seconds) == {
        first_phase,
        "cleanup_scan",
        "finalize",
    }


class TestCheckpointKind:
    """A sharded checkpoint resumes over its shard directory only."""

    def test_resume_build_refuses_sharded_checkpoint_on_flat_table(
        self, tmp_path, flat_table
    ):
        _, ckpt = _interrupt_sharded(tmp_path, flat_table)
        with pytest.raises(RecoveryError, match="records a sharded build"):
            resume_build(flat_table, GINI, SPLIT, _config(ckpt))

    def test_resume_sharded_build_refuses_flat_table(self, tmp_path, flat_table):
        _, ckpt = _interrupt_sharded(tmp_path, flat_table)
        with pytest.raises(RecoveryError, match="records a sharded build"):
            resume_sharded_build(flat_table, GINI, SPLIT, _config(ckpt))

    def test_cli_resume_of_sharded_checkpoint_on_flat_table(
        self, tmp_path, flat_table, table_path, capsys
    ):
        _, ckpt = _interrupt_sharded(tmp_path, flat_table)
        out = tmp_path / "tree.json"
        code = main(["build", table_path, str(out), "--resume", ckpt])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sharded build" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestForestKnobs:
    def test_checkpoint_dir_refused_before_any_scan(self, tmp_path, flat_table):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RecoveryError, match="checkpoint"):
            forest_build(flat_table, 2, GINI, SPLIT, _config(str(ckpt)))
        assert flat_table.io_stats.tuples_read == 0
        assert not ckpt.exists()

    def test_sql_pushdown_refused_before_any_scan(self, flat_table):
        """As the CLI refuses ``--forest --sql-pushdown``, so does the API."""
        with pytest.raises(ReproError, match="sql_pushdown"):
            forest_build(flat_table, 2, GINI, SPLIT, _config(sql_pushdown=True))
        assert flat_table.io_stats.tuples_read == 0

    @pytest.mark.parametrize("fail_on_scan", [0, 1])
    def test_scan_retries_absorb_a_transient_fault(
        self, flat_table, fail_on_scan
    ):
        """A one-shot I/O error in either shared scan (sample gather or
        cleanup) is retried and the forest comes out byte-identical."""
        expected = forest_to_json(
            forest_build(flat_table, 3, GINI, SPLIT, _config()).forest
        )
        with pytest.raises(StorageError, match="injected"):
            forest_build(
                FaultyTable(flat_table, "ioerror", fail_on_scan, 2000),
                3,
                GINI,
                SPLIT,
                _config(),
            )
        retrying = dataclasses.replace(
            _config(), scan_retries=1, scan_retry_base_delay_s=0.0
        )
        result = forest_build(
            FaultyTable(flat_table, "ioerror", fail_on_scan, 2000),
            3,
            GINI,
            SPLIT,
            retrying,
        )
        assert forest_to_json(result.forest) == expected
