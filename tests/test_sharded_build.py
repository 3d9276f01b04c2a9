"""Differential correctness of the sharded data-parallel build.

The acceptance bar for ``repro.shard``: the coordinator's tree is
byte-identical to the single-table build's at every shard count, worker
count and split-selection method, and each shard is scanned exactly
twice (IOStats-asserted), so data parallelism costs no extra I/O and
changes no answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import ShardError
from repro.shard import (
    combine_verdicts,
    make_transport,
    sharded_boat_build,
)
from repro.shard.stats import ShardVerdict
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import DiskTable, IOStats, ShardedTable, partition_table
from repro.tree import tree_diff, trees_equal

N_ROWS = 4000
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)


def _config(n_workers: int = 1) -> BoatConfig:
    return BoatConfig(
        sample_size=1000,
        bootstrap_repetitions=10,
        seed=29,
        batch_rows=512,
        n_workers=n_workers,
    )


@pytest.fixture(scope="module")
def dataset() -> np.ndarray:
    gen = AgrawalGenerator(AgrawalConfig(function_id=4, noise=0.05), seed=13)
    return gen.generate(N_ROWS)


@pytest.fixture(scope="module")
def schema():
    return AgrawalGenerator(AgrawalConfig(function_id=4), seed=0).schema


@pytest.fixture(scope="module")
def flat_table(tmp_path_factory, dataset, schema):
    path = tmp_path_factory.mktemp("flat") / "train.tbl"
    table = DiskTable.create(str(path), schema, IOStats())
    table.append(dataset)
    yield table
    table.close()


@pytest.fixture(scope="module")
def reference_tree(flat_table):
    return boat_build(
        flat_table, ImpuritySplitSelection("gini"), SPLIT, _config()
    ).tree


@pytest.fixture(scope="module")
def shard_dirs(tmp_path_factory, flat_table):
    dirs = {}
    for k in (1, 2, 4):
        directory = tmp_path_factory.mktemp(f"shards{k}")
        partition_table(flat_table, directory, k)
        dirs[k] = directory
    return dirs


def _build_sharded(shard_dirs, k, n_workers=1, transport="inprocess"):
    experiment = IOStats()
    table = ShardedTable.open(shard_dirs[k], experiment)
    try:
        result = sharded_boat_build(
            table,
            ImpuritySplitSelection("gini"),
            SPLIT,
            _config(n_workers),
            transport=transport,
        )
    finally:
        table.close()
    return result, experiment


class TestByteIdentity:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_gini_matches_single_table(
        self, shard_dirs, reference_tree, k, n_workers
    ):
        result, _ = _build_sharded(shard_dirs, k, n_workers)
        assert trees_equal(result.tree, reference_tree), tree_diff(
            result.tree, reference_tree
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_quest_matches_single_table(self, shard_dirs, flat_table, k):
        """QUEST consumes the sharded table directly through the scan
        API; the cross-shard re-batching keeps its float accumulation
        order — and therefore the tree — byte-identical."""
        reference = boat_build(
            flat_table, QuestSplitSelection(), SPLIT, _config()
        ).tree
        table = ShardedTable.open(shard_dirs[k], IOStats())
        try:
            sharded = boat_build(
                table, QuestSplitSelection(), SPLIT, _config()
            ).tree
        finally:
            table.close()
        assert trees_equal(sharded, reference), tree_diff(sharded, reference)

    def test_process_transport_matches(self, shard_dirs, reference_tree):
        result, _ = _build_sharded(shard_dirs, 2, 2, transport="process")
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.transport == "process"


class TestScanCountInvariant:
    def test_each_shard_scanned_exactly_twice(self, shard_dirs):
        result, experiment = _build_sharded(shard_dirs, 4)
        report = result.shard_report
        assert [io.full_scans for io in report.shard_io] == [2, 2, 2, 2]
        # The experiment's accounting sees the two *logical* scans of
        # the training database, exactly like the single-table build.
        assert experiment.full_scans == 2

    def test_sharded_reads_same_bytes_as_flat(self, shard_dirs, flat_table):
        flat_io = IOStats()
        flat = DiskTable.open(flat_table.path, flat_io)
        boat_build(flat, ImpuritySplitSelection("gini"), SPLIT, _config())
        flat.close()
        result, experiment = _build_sharded(shard_dirs, 2)
        assert experiment.bytes_read == flat_io.bytes_read
        shard_bytes = sum(
            io.bytes_read for io in result.shard_report.shard_io
        )
        assert shard_bytes == flat_io.bytes_read


class TestShardReport:
    def test_report_contents(self, shard_dirs):
        result, _ = _build_sharded(shard_dirs, 2)
        report = result.shard_report
        assert report.n_shards == 2
        assert report.transport == "inprocess"
        assert report.placement == "range"
        assert sum(report.shard_rows) == N_ROWS
        assert all(v.ok for v in report.verdicts)
        # Candidate sets were merged for every numeric attribute.
        assert report.candidate_counts
        assert all(count > 0 for count in report.candidate_counts.values())

    def test_build_report_mode(self, shard_dirs):
        result, _ = _build_sharded(shard_dirs, 2)
        assert result.report.mode == "boat-sharded"


class TestFailureDetection:
    def test_digest_mismatch_surfaces_single_error(self, shard_dirs, schema):
        table = ShardedTable.open(shard_dirs[2], IOStats())
        transport = make_transport("inprocess", table.shard_paths)
        from repro.shard.worker import sample_request

        requests = [
            sample_request(i, None, 512, "deadbeef" * 8, rows)
            for i, rows in enumerate(table.manifest.shard_rows)
        ]
        responses = transport.run(requests)
        table.close()
        verdicts = [r["verdict"] for r in responses]
        assert all(not v.ok for v in verdicts)
        with pytest.raises(ShardError, match="shard 0.*shard 1"):
            combine_verdicts(verdicts)

    def test_combine_verdicts_passes_healthy(self):
        combine_verdicts([ShardVerdict(0, ok=True), ShardVerdict(1, ok=True)])

    def test_combine_verdicts_names_every_failure(self):
        with pytest.raises(ShardError) as info:
            combine_verdicts(
                [
                    ShardVerdict(0, ok=True),
                    ShardVerdict(1, ok=False, reason="row-count drift"),
                    ShardVerdict(2, ok=False, reason="schema digest mismatch"),
                ]
            )
        message = str(info.value)
        assert "row-count drift" in message
        assert "schema digest mismatch" in message
