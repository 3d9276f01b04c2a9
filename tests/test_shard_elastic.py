"""Elastic shard dispatch: failover, speculation, checkpoint/resume, reshard.

The acceptance bar for ``repro.shard.elastic``: a build that loses an
attempt — a dropped request, a worker dying mid-cleanup, a straggler, a
SIGKILL'd coordinator, even a shard layout migrated under a checkpoint —
still finishes with a tree byte-identical to the flat single-process
build's, without scanning an already-counted row again, and without
leaving spill litter behind.  Faults are injected deterministically via
:class:`repro.shard.FaultyTransport` (no timers, no real kills; those
live in ``test_shard_chaos.py``).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import RecoveryError, ShardError, StorageError
from repro.recovery import RetryPolicy, resume_build
from repro.shard import (
    ElasticDispatcher,
    ElasticPolicy,
    FaultyTransport,
    WorkUnit,
    make_transport,
    resume_sharded_build,
    sharded_boat_build,
    uncovered_intervals,
    units_for_intervals,
    whole_shard_units,
)
from repro.splits import ImpuritySplitSelection
from repro.storage import (
    DiskTable,
    IOStats,
    ShardedTable,
    partition_table,
    replicate_shards,
    reshard,
)
from repro.tree import tree_diff, trees_equal

# 4098 rows: the K=2 range boundary (2049) is NOT a K=4 boundary
# (1025/2050/3074), so a checkpoint taken at K=2 resumed at K=4 forces a
# *partial* work unit — the interesting reshard-resume case.
N_ROWS = 4098
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=5)

#: A fast retry shape so failover tests don't sleep through real backoff.
FAST_RETRY = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05)


def _config(checkpoint_dir=None) -> BoatConfig:
    return BoatConfig(
        sample_size=800,
        bootstrap_repetitions=8,
        seed=5,
        batch_rows=512,
        checkpoint_dir=checkpoint_dir,
    )


def _method() -> ImpuritySplitSelection:
    return ImpuritySplitSelection("gini")


@pytest.fixture(scope="module")
def dataset() -> np.ndarray:
    gen = AgrawalGenerator(AgrawalConfig(function_id=6, noise=0.05), seed=23)
    return gen.generate(N_ROWS)


@pytest.fixture(scope="module")
def flat_table(tmp_path_factory, dataset):
    schema = AgrawalGenerator(AgrawalConfig(function_id=6), seed=0).schema
    path = tmp_path_factory.mktemp("flat") / "train.tbl"
    table = DiskTable.create(str(path), schema, IOStats())
    table.append(dataset)
    yield table
    table.close()


@pytest.fixture(scope="module")
def reference_tree(flat_table):
    return boat_build(flat_table, _method(), SPLIT, _config()).tree


@pytest.fixture(scope="module")
def shard2_dir(tmp_path_factory, flat_table):
    directory = tmp_path_factory.mktemp("shards2")
    partition_table(flat_table, directory, 2)
    return directory


def _faulty_build(
    shard_dir,
    kind: str,
    *,
    at_request: int = 1,
    times: int = 1,
    delay_s: float = 0.5,
    at_batch: int = 2,
    elastic: ElasticPolicy | None = None,
    checkpoint_dir: str | None = None,
    spill_dir: str | None = None,
):
    """Run a sharded build with one injected transport fault at shard 1."""
    table = ShardedTable.open(shard_dir, IOStats())
    inner = make_transport("inprocess", table.shard_paths)
    faulty = FaultyTransport(
        inner,
        kind,
        shard_id=1,
        at_request=at_request,
        times=times,
        delay_s=delay_s,
        at_batch=at_batch,
        shard_paths=table.shard_paths,
    )
    try:
        result = sharded_boat_build(
            table,
            _method(),
            SPLIT,
            _config(checkpoint_dir=checkpoint_dir),
            spill_dir=spill_dir,
            transport=faulty,
            elastic=elastic,
        )
    finally:
        faulty.close()
        table.close()
    return result, faulty


class TestPlanner:
    """The pure unit-planning functions behind dispatch and resume."""

    def test_whole_shard_units(self):
        units = whole_shard_units([0, 5, 9])
        assert units == [
            WorkUnit(shard_id=0, lo=0, hi=5),
            WorkUnit(shard_id=1, lo=5, hi=9),
        ]
        assert [u.rows for u in units] == [5, 4]
        assert all(u.local_start == 0 and u.local_stop is None for u in units)

    def test_uncovered_intervals_nothing_covered(self):
        assert uncovered_intervals([], 9) == [(0, 9)]

    def test_uncovered_intervals_fully_covered(self):
        assert uncovered_intervals([(0, 4), (4, 9)], 9) == []

    def test_uncovered_intervals_gaps_sorted_and_merged(self):
        # Unsorted input, gaps at both ends and in the middle.
        assert uncovered_intervals([(3, 5), (1, 2)], 9) == [
            (0, 1),
            (2, 3),
            (5, 9),
        ]
        # Overlapping cover collapses.
        assert uncovered_intervals([(0, 4), (2, 6)], 9) == [(6, 9)]

    def test_units_for_intervals_cuts_at_current_boundaries(self):
        # The reshard-resume planner case: a K=2 checkpoint covered
        # [0, 2049); the table now has K=4 boundaries that do not nest.
        offsets = [0, 1025, 2050, 3074, 4098]
        units = units_for_intervals([(2049, 4098)], offsets)
        assert units == [
            WorkUnit(shard_id=1, lo=2049, hi=2050, local_start=1024,
                     local_stop=1025),
            WorkUnit(shard_id=2, lo=2050, hi=3074),
            WorkUnit(shard_id=3, lo=3074, hi=4098),
        ]
        # Whole-shard takes keep local_stop=None so the shard still
        # records one *full* scan in its IOStats.
        assert units[1].local_stop is None
        assert units[2].local_stop is None

    def test_units_for_intervals_sorted_across_intervals(self):
        offsets = [0, 10, 20]
        units = units_for_intervals([(12, 15), (2, 4)], offsets)
        assert [(u.lo, u.hi) for u in units] == [(2, 4), (12, 15)]
        assert [u.shard_id for u in units] == [0, 1]

    def test_attempt_budget(self):
        strict = ElasticPolicy(failover=False, local_fallback=False)
        assert strict.attempt_budget(3) == 1
        failover = ElasticPolicy(retry=RetryPolicy(max_retries=2))
        assert failover.attempt_budget(3) == 3
        speculative = ElasticPolicy(
            retry=RetryPolicy(max_retries=2),
            speculate_after_s=1.0,
            max_speculative_per_unit=2,
        )
        assert speculative.attempt_budget(3) == 5


class TestFaultyTransport:
    """The fault injector itself (configuration and arming)."""

    def test_rejects_unknown_kind(self, shard2_dir):
        table = ShardedTable.open(shard2_dir, IOStats())
        inner = make_transport("inprocess", table.shard_paths)
        try:
            with pytest.raises(ValueError, match="kind must be one of"):
                FaultyTransport(inner, "gamma_ray", shard_id=0)
        finally:
            table.close()

    def test_abort_scan_requires_shard_paths(self, shard2_dir):
        table = ShardedTable.open(shard2_dir, IOStats())
        inner = make_transport("inprocess", table.shard_paths)
        try:
            with pytest.raises(ValueError, match="abort_scan needs"):
                FaultyTransport(inner, "abort_scan", shard_id=0)
        finally:
            table.close()

    def test_drop_hits_only_configured_shard_and_request(self, shard2_dir):
        from repro.shard.worker import sample_request

        table = ShardedTable.open(shard2_dir, IOStats())
        inner = make_transport("inprocess", table.shard_paths)
        faulty = FaultyTransport(inner, "drop", shard_id=1, at_request=1)
        digest = table.manifest.schema_digest
        rows = table.manifest.shard_rows
        try:
            # Request 0 to either shard runs clean.
            for shard_id in (0, 1):
                response = faulty.request_one(
                    shard_id,
                    sample_request(shard_id, None, 512, digest, rows[shard_id]),
                )
                assert response["status"] == "ok"
            # Shard 1's request 1 trips; shard 0's does not.
            response = faulty.request_one(
                0, sample_request(0, None, 512, digest, rows[0])
            )
            assert response["status"] == "ok"
            with pytest.raises(ShardError, match="injected drop of request 1"):
                faulty.request_one(
                    1, sample_request(1, None, 512, digest, rows[1])
                )
            # times=1: the next matching request passes again.
            response = faulty.request_one(
                1, sample_request(1, None, 512, digest, rows[1])
            )
            assert response["status"] == "ok"
            assert faulty.faults_injected == 1
            assert faulty.requests_seen[1] == 3
        finally:
            faulty.close()
            table.close()


class TestElasticBuilds:
    """Differential builds through injected faults: byte-identical, clean."""

    @pytest.mark.parametrize("kind", ["drop", "abort_scan"])
    def test_failed_cleanup_unit_fails_over(
        self, shard2_dir, reference_tree, tmp_path, kind
    ):
        """Both failure planes — delivery (drop) and logical (a worker
        dying mid-scan after partial accumulation) — recover on the next
        placement without double-counting a row."""
        spill = tmp_path / "spill"
        spill.mkdir()
        result, faulty = _faulty_build(
            shard2_dir,
            kind,
            elastic=ElasticPolicy(retry=FAST_RETRY),
            spill_dir=str(spill),
        )
        assert trees_equal(result.tree, reference_tree), tree_diff(
            result.tree, reference_tree
        )
        report = result.shard_report
        assert report.failovers == 1
        assert faulty.faults_injected == 1
        # Only the winning attempt's I/O is charged: still two scans
        # per shard, exactly the flat build's logical cost.
        assert [io.full_scans for io in report.shard_io] == [2, 2]
        assert all(v.ok for v in report.verdicts)
        assert list(spill.iterdir()) == []

    def test_duplicate_delivery_is_idempotent(self, shard2_dir, reference_tree):
        """A re-executed cleanup request returns bit-identical statistics
        (the idempotence failover and speculation stand on), and the
        build merges exactly one copy."""
        result, faulty = _faulty_build(shard2_dir, "duplicate")
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.failovers == 0
        assert [io.full_scans for io in result.shard_report.shard_io] == [2, 2]
        assert len(faulty.duplicate_responses) == 1
        first, second = faulty.duplicate_responses[0]
        assert first["status"] == second["status"] == "ok"
        blob = lambda response: pickle.dumps(  # noqa: E731
            sorted(response["result"].nodes, key=lambda stats: stats.node_id)
        )
        assert blob(first) == blob(second)
        assert (
            first["result"].rows_scanned == second["result"].rows_scanned
        )

    def test_exhausted_placements_surface_single_clean_error(
        self, shard2_dir, tmp_path
    ):
        """With no replicas and the local fallback disabled there is one
        placement; a persistent fault burns the whole retry budget and
        the build dies with one error naming the dead unit."""
        spill = tmp_path / "spill"
        spill.mkdir()
        with pytest.raises(ShardError) as excinfo:
            _faulty_build(
                shard2_dir,
                "drop",
                times=10,
                elastic=ElasticPolicy(local_fallback=False, retry=FAST_RETRY),
                spill_dir=str(spill),
            )
        message = str(excinfo.value)
        assert "1 of 2 shard work unit(s) failed permanently" in message
        assert (
            "shard 1 rows [2049, 4098): all 1 placement(s) exhausted "
            "after 3 attempt(s)" in message
        )
        assert "injected drop" in message
        assert list(spill.iterdir()) == []

    def test_replica_failover(self, tmp_path, flat_table, reference_tree):
        """With the local fallback off, the only fallback is the replica
        written by replicate_shards — the recovered build proves the
        replica file carried the unit."""
        shard_dir = tmp_path / "shards"
        partition_table(flat_table, shard_dir, 2)
        manifest = replicate_shards(shard_dir, copies=1)
        assert [len(r) for r in manifest.shard_replicas] == [1, 1]
        result, _ = _faulty_build(
            shard_dir,
            "drop",
            times=10,
            elastic=ElasticPolicy(local_fallback=False, retry=FAST_RETRY),
        )
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.failovers >= 1
        assert [io.full_scans for io in result.shard_report.shard_io] == [2, 2]

    def test_speculation_beats_straggler(
        self, tmp_path, flat_table, reference_tree
    ):
        """A delayed shard gets a backup attempt on its replica; first
        result wins and the straggler is drained as a duplicate."""
        shard_dir = tmp_path / "shards"
        partition_table(flat_table, shard_dir, 2)
        replicate_shards(shard_dir, copies=1)
        result, faulty = _faulty_build(
            shard_dir,
            "delay",
            delay_s=1.0,
            elastic=ElasticPolicy(
                retry=FAST_RETRY, speculate_after_s=0.1
            ),
        )
        assert trees_equal(result.tree, reference_tree)
        report = result.shard_report
        assert report.speculative_launches >= 1
        assert report.duplicates_discarded >= 1
        assert report.failovers == 0
        assert [io.full_scans for io in report.shard_io] == [2, 2]
        assert faulty.faults_injected == 1


class TestReshardStorage:
    """reshard()/replicate_shards() at the storage layer."""

    def _partition(self, tmp_path, flat_table, k, placement="range"):
        directory = tmp_path / "shards"
        partition_table(flat_table, directory, k, placement=placement)
        return directory

    @pytest.mark.parametrize("new_k", [1, 3, 4])
    def test_reshard_preserves_global_row_order(
        self, tmp_path, flat_table, dataset, new_k
    ):
        directory = self._partition(tmp_path, flat_table, 2)
        manifest = reshard(directory, new_k)
        assert manifest.n_shards == new_k
        assert sum(manifest.shard_rows) == N_ROWS
        table = ShardedTable.open(directory, IOStats())
        try:
            rows = np.concatenate(list(table.scan(batch_rows=997)))
        finally:
            table.close()
        assert rows.tobytes() == dataset.tobytes()

    def test_reshard_refuses_hash_placement(self, tmp_path, flat_table):
        directory = self._partition(tmp_path, flat_table, 2, placement="hash")
        with pytest.raises(
            StorageError, match="reshard requires range placement"
        ):
            reshard(directory, 4)

    def test_reshard_sweeps_previous_generation(self, tmp_path, flat_table):
        directory = self._partition(tmp_path, flat_table, 2)
        old_files = {p.name for p in directory.iterdir() if p.suffix == ".tbl"}
        reshard(directory, 4)
        new_files = {p.name for p in directory.iterdir() if p.suffix == ".tbl"}
        assert len(new_files) == 4
        assert not (old_files & new_files)

    def test_reshard_drops_replicas(self, tmp_path, flat_table):
        directory = self._partition(tmp_path, flat_table, 2)
        replicate_shards(directory, copies=1)
        manifest = reshard(directory, 4)
        assert all(len(r) == 0 for r in manifest.shard_replicas)
        assert not [
            p for p in directory.iterdir() if ".r" in p.name
        ], "stale replica files survived the reshard"

    def test_replicate_is_idempotent(self, tmp_path, flat_table):
        directory = self._partition(tmp_path, flat_table, 2)
        first = replicate_shards(directory, copies=1)
        second = replicate_shards(directory, copies=1)
        assert first.shard_replicas == second.shard_replicas
        assert [len(r) for r in second.shard_replicas] == [1, 1]
        table = ShardedTable.open(directory, IOStats())
        try:
            for replicas in table.replica_paths:
                assert all(os.path.exists(path) for path in replicas)
        finally:
            table.close()


class TestShardedCheckpointResume:
    """Sharded checkpoint/resume, including resume at a new shard count."""

    #: A policy that makes the injected drop fatal, modelling a
    #: coordinator killed mid-cleanup: shard 0's unit lands in the
    #: checkpoint, shard 1's dies with the build.
    STRICT = ElasticPolicy(failover=False, local_fallback=False)

    def _interrupt(self, tmp_path, flat_table, k=2):
        shard_dir = tmp_path / "shards"
        ckpt = tmp_path / "ckpt"
        partition_table(flat_table, shard_dir, k)
        with pytest.raises(ShardError, match="failed permanently"):
            _faulty_build(
                shard_dir,
                "drop",
                times=1,
                elastic=self.STRICT,
                checkpoint_dir=str(ckpt),
            )
        return shard_dir, ckpt

    def _resume(self, shard_dir, ckpt, entry=resume_sharded_build, **kwargs):
        table = ShardedTable.open(shard_dir, IOStats())
        try:
            return entry(
                table, _method(), SPLIT, _config(checkpoint_dir=str(ckpt)),
                **kwargs,
            )
        finally:
            table.close()

    def test_interrupted_build_checkpoints_completed_units(
        self, tmp_path, flat_table
    ):
        _, ckpt = self._interrupt(tmp_path, flat_table)
        units = sorted(os.listdir(ckpt / "units"))
        assert units == ["unit-000000000000-000000002049.pkl"]
        assert (ckpt / "units.json").exists()
        assert (ckpt / "skeleton.json").exists()

    def test_resume_completes_byte_identically(
        self, tmp_path, flat_table, reference_tree
    ):
        shard_dir, ckpt = self._interrupt(tmp_path, flat_table)
        result = self._resume(shard_dir, ckpt)
        assert trees_equal(result.tree, reference_tree), tree_diff(
            result.tree, reference_tree
        )
        report = result.shard_report
        assert report.resumed
        assert report.restored_units == 1
        # The restored unit's rows are NOT re-scanned: shard 0 is never
        # touched, shard 1 records exactly one fresh full scan.
        assert [io.full_scans for io in report.shard_io] == [0, 1]
        # Success consumed the checkpoint.
        with pytest.raises(RecoveryError, match="records a completed build"):
            self._resume(shard_dir, ckpt)

    def test_generic_resume_build_delegates_to_sharded(
        self, tmp_path, flat_table, reference_tree
    ):
        shard_dir, ckpt = self._interrupt(tmp_path, flat_table)
        result = self._resume(shard_dir, ckpt, entry=resume_build)
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.resumed

    def test_resume_after_reshard(
        self, tmp_path, flat_table, dataset, reference_tree
    ):
        """The tentpole case: checkpoint at K=2, migrate to K=4, resume.

        2049 (the K=2 boundary under the checkpoint) is not a K=4
        boundary, so the resume planner must emit a *partial* unit for
        the one uncovered row of new shard 1 — asserted through the
        per-shard I/O: that shard reads exactly one row and records no
        full scan, while shards 2 and 3 each record one.
        """
        shard_dir, ckpt = self._interrupt(tmp_path, flat_table)
        manifest = reshard(shard_dir, 4)
        assert list(manifest.shard_rows) == [1025, 1025, 1024, 1024]
        result = self._resume(shard_dir, ckpt)
        assert trees_equal(result.tree, reference_tree), tree_diff(
            result.tree, reference_tree
        )
        report = result.shard_report
        assert report.resumed
        assert report.restored_units == 1
        assert report.n_shards == 4
        assert [io.full_scans for io in report.shard_io] == [0, 0, 1, 1]
        row_bytes = dataset.dtype.itemsize
        assert report.shard_io[0].bytes_read == 0
        assert report.shard_io[1].bytes_read == 1 * row_bytes
        assert report.shard_io[2].bytes_read == 1024 * row_bytes
        assert report.shard_io[3].bytes_read == 1024 * row_bytes

    def test_resume_after_failed_resume(
        self, tmp_path, flat_table, reference_tree
    ):
        """A resume that itself dies stays resumable (regression: the
        checkpoint must only be consumed on success)."""
        shard_dir, ckpt = self._interrupt(tmp_path, flat_table)
        # First resume attempt: the same fault kills the remaining unit.
        table = ShardedTable.open(shard_dir, IOStats())
        inner = make_transport("inprocess", table.shard_paths)
        faulty = FaultyTransport(inner, "drop", shard_id=1, at_request=0)
        try:
            with pytest.raises(ShardError, match="failed permanently"):
                resume_sharded_build(
                    table,
                    _method(),
                    SPLIT,
                    _config(checkpoint_dir=str(ckpt)),
                    transport=faulty,
                    elastic=self.STRICT,
                )
        finally:
            faulty.close()
            table.close()
        assert (ckpt / "units.json").exists()
        # Second resume, clean transport: finishes byte-identically.
        result = self._resume(shard_dir, ckpt)
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.restored_units == 1

    def test_resume_that_restores_no_unit_counts_one_full_scan(
        self, tmp_path, flat_table, reference_tree
    ):
        """Both units of a 2-shard build fail, so the checkpoint holds no
        unit: the resume reads the whole table, one logical full scan, as
        a flat resume from row 0 does."""
        shard_dir = tmp_path / "shards"
        ckpt = tmp_path / "ckpt"
        partition_table(flat_table, shard_dir, 2)
        table = ShardedTable.open(shard_dir, IOStats())
        inner = make_transport("inprocess", table.shard_paths)
        faulty = FaultyTransport(
            FaultyTransport(inner, "drop", shard_id=0, at_request=1),
            "drop",
            shard_id=1,
            at_request=1,
        )
        try:
            with pytest.raises(ShardError, match="failed permanently"):
                sharded_boat_build(
                    table, _method(), SPLIT, _config(checkpoint_dir=str(ckpt)),
                    transport=faulty, elastic=self.STRICT,
                )
        finally:
            faulty.close()
            table.close()
        assert not os.listdir(ckpt / "units")
        result = self._resume(shard_dir, ckpt)
        assert trees_equal(result.tree, reference_tree)
        assert result.shard_report.restored_units == 0
        assert result.report.io["cleanup_scan"].full_scans == 1

    def test_resume_requires_checkpoint_dir(self, shard2_dir):
        table = ShardedTable.open(shard2_dir, IOStats())
        try:
            with pytest.raises(
                RecoveryError, match="requires BoatConfig.checkpoint_dir"
            ):
                resume_sharded_build(table, _method(), SPLIT, _config())
        finally:
            table.close()

    def test_resume_refuses_config_drift(self, tmp_path, flat_table):
        shard_dir, ckpt = self._interrupt(tmp_path, flat_table)
        drifted = BoatConfig(
            sample_size=800,
            bootstrap_repetitions=8,
            seed=6,  # not the checkpointed build's seed
            batch_rows=512,
            checkpoint_dir=str(ckpt),
        )
        table = ShardedTable.open(shard_dir, IOStats())
        try:
            with pytest.raises(
                RecoveryError, match="configuration digest mismatch"
            ):
                resume_sharded_build(table, _method(), SPLIT, drifted)
        finally:
            table.close()
