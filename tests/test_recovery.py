"""Crash-safe checkpoint/resume and the retrying scan wrapper.

The contract under test: a checkpointed build that is killed mid-cleanup
and resumed produces a tree *byte-identical* (same serialized JSON) to
the uninterrupted build's, at any worker count, re-reading only the rows
no checkpointed unit covers (holes in the unit index included); and a
scan wrapped in
:class:`RetryingTable` absorbs transient I/O errors without changing the
output at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build, cleanup_scan
from repro.exceptions import RecoveryError, StorageError
from repro.observability import Tracer
from repro.recovery import (
    CheckpointManager,
    RetryingTable,
    RetryPolicy,
    build_digest,
    load_checkpoint,
    load_unit_results,
    restore_skeleton,
    resume_build,
    uncovered_intervals,
)
from repro.recovery.checkpoint import merge_shard_stats
from repro.splits import ImpuritySplitSelection
from repro.storage import DiskTable, FaultyTable, IOStats, MemoryTable, Table
from repro.tree import tree_to_json

from .conftest import simple_xy_data

N_ROWS = 6000


@pytest.fixture
def disk_table(small_schema, tmp_path):
    io = IOStats()
    table = DiskTable.create(tmp_path / "train.tbl", small_schema, io)
    table.append(simple_xy_data(small_schema, N_ROWS, seed=2, rule="xy"))
    io.reset()
    return table


def recovery_config(tmp_path, **overrides) -> BoatConfig:
    defaults = dict(
        sample_size=500,
        bootstrap_repetitions=4,
        seed=3,
        spill_threshold_rows=1,  # every held/family row spills
        batch_rows=256,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every_batches=2,
    )
    defaults.update(overrides)
    return BoatConfig(**defaults)


@pytest.fixture
def gini():
    return ImpuritySplitSelection("gini")


@pytest.fixture
def split_config():
    return SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=8)


def baseline_json(table, gini, split_config) -> str:
    result = boat_build(
        table,
        gini,
        split_config,
        BoatConfig(
            sample_size=500,
            bootstrap_repetitions=4,
            seed=3,
            spill_threshold_rows=1,
            batch_rows=256,
        ),
    )
    return tree_to_json(result.tree)


#: sha256 of ``baseline_json`` as built before flat checkpoints became
#: row-interval units: checkpointing must not change the tree.
BASELINE_SHA256 = "07920bbf057b4d4719dbf7c1d992f7d54bdee64e660fb2c45d5bbaaac6f0552c"


def unit_index(ckpt) -> list[list[int]]:
    """The ``[lo, hi)`` intervals ``units.json`` records."""
    with open(os.path.join(ckpt, "units.json")) as fh:
        return json.load(fh)["units"]


def checkpoint_files(ckpt) -> list[str]:
    """Every file under ``ckpt``, relative to it (directories omitted)."""
    return sorted(
        os.path.relpath(os.path.join(root, name), ckpt)
        for root, _, names in os.walk(ckpt)
        for name in names
    )


def crash_mid_cleanup(table, gini, split_config, config, fail_at_row=4000):
    """Run a checkpointed build that dies at ``fail_at_row`` of the cleanup."""
    faulty = FaultyTable(table, "ioerror", fail_on_scan=1, fail_at_row=fail_at_row)
    with pytest.raises(StorageError, match="injected"):
        boat_build(faulty, gini, split_config, config)


class _AlwaysFaultyTable(Table):
    """Raises OSError at the same row of *every* scan (a persistent fault)."""

    def __init__(self, inner: Table, fail_at_row: int):
        super().__init__(inner.schema, inner.io_stats)
        self._inner = inner
        self.fail_at_row = fail_at_row

    def __len__(self):
        return len(self._inner)

    def append(self, batch):
        self._inner.append(batch)

    def scan(self, batch_rows=65536):
        position = 0
        for batch in self._inner.scan(batch_rows):
            if position + len(batch) > self.fail_at_row:
                raise OSError(5, "persistent device error")
            position += len(batch)
            yield batch


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=0.1, max_delay_s=0.35)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(4) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)


class TestRetryingTable:
    def test_absorbs_transient_fault_each_row_once(self, small_schema):
        data = simple_xy_data(small_schema, 1000, seed=5)
        inner = MemoryTable(small_schema, data)
        faulty = FaultyTable(inner, "ioerror", fail_on_scan=0, fail_at_row=600)
        sleeps = []
        table = RetryingTable(
            faulty, RetryPolicy(max_retries=2, base_delay_s=0.01), sleep=sleeps.append
        )
        out = np.concatenate(list(table.scan(batch_rows=128)))
        assert np.array_equal(out, data)  # every row exactly once
        assert table.retries_absorbed == 1
        assert sleeps == [pytest.approx(0.01)]

    def test_persistent_fault_exhausts_retries(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=6)
        table = RetryingTable(
            _AlwaysFaultyTable(MemoryTable(small_schema, data), fail_at_row=200),
            RetryPolicy(max_retries=2, base_delay_s=0.0, max_delay_s=0.0),
        )
        with pytest.raises(OSError, match="persistent"):
            list(table.scan(batch_rows=100))
        assert table.retries_absorbed == 2

    def test_retry_surfaces_in_trace(self, small_schema):
        data = simple_xy_data(small_schema, 400, seed=7)
        faulty = FaultyTable(
            MemoryTable(small_schema, data), "ioerror", fail_on_scan=0, fail_at_row=150
        )
        tracer = Tracer()
        table = RetryingTable(
            faulty, RetryPolicy(base_delay_s=0.0, max_delay_s=0.0), tracer=tracer
        )
        with tracer.span("scan_phase") as span:
            list(table.scan(batch_rows=64))
        assert span.attributes["scan_retries"] == 1
        event = tracer.report().find("scan_retry")
        assert event is not None
        assert event.attributes["resume_offset"] == 128  # last full batch
        assert event.attributes["error"] == "OSError"

    def test_seekable_inner_resumes_by_offset(self, small_schema, tmp_path):
        data = simple_xy_data(small_schema, 1000, seed=8)
        io = IOStats()
        disk = DiskTable.create(tmp_path / "seek.tbl", small_schema, io)
        disk.append(data)
        io.reset()

        class FlakyDisk(Table):
            scan_supports_start_row = True

            def __init__(self):
                super().__init__(disk.schema, disk.io_stats)
                self.faults_left = 1

            def __len__(self):
                return len(disk)

            def append(self, batch):
                disk.append(batch)

            def scan(self, batch_rows=65536, start_row=0):
                position = start_row
                for batch in disk.scan(batch_rows, start_row=start_row):
                    if self.faults_left and position + len(batch) > 600:
                        self.faults_left -= 1
                        raise OSError(5, "flaky read")
                    position += len(batch)
                    yield batch

        table = RetryingTable(
            FlakyDisk(), RetryPolicy(base_delay_s=0.0, max_delay_s=0.0)
        )
        out = np.concatenate(list(table.scan(batch_rows=200)))
        assert np.array_equal(out, data)
        # Seek-based resume re-reads only the faulted batch: 600 rows
        # delivered + the 200-row batch that died + 400 rows of tail.
        assert io.tuples_read == 600 + 200 + 400
        # The logical full scan is still recorded exactly once.
        assert io.full_scans == 1

    def test_zero_retries_propagates_immediately(self, small_schema):
        data = simple_xy_data(small_schema, 300, seed=9)
        faulty = FaultyTable(
            MemoryTable(small_schema, data), "ioerror", fail_on_scan=0, fail_at_row=100
        )
        table = RetryingTable(faulty, RetryPolicy(max_retries=0))
        with pytest.raises(OSError):
            list(table.scan(batch_rows=50))

    def test_non_oserror_not_retried(self, small_schema):
        data = simple_xy_data(small_schema, 300, seed=10)
        faulty = FaultyTable(
            MemoryTable(small_schema, data),
            "short_read",
            fail_on_scan=0,
            fail_at_row=100,
        )
        table = RetryingTable(faulty, RetryPolicy(max_retries=3, base_delay_s=0.0))
        with pytest.raises(StorageError, match="short read"):
            list(table.scan(batch_rows=50))
        assert table.retries_absorbed == 0


class TestConfigDigest:
    def test_speed_knobs_do_not_change_digest(self, small_schema):
        split = SplitConfig()
        a = build_digest(small_schema, 1000, split, BoatConfig())
        b = build_digest(
            small_schema,
            1000,
            split,
            BoatConfig(
                batch_rows=7,
                n_workers=8,
                spill_threshold_rows=3,
                scan_retries=5,
                checkpoint_every_batches=99,
                trace=True,
            ),
        )
        assert a == b

    def test_tree_defining_knobs_change_digest(self, small_schema):
        split = SplitConfig()
        base = build_digest(small_schema, 1000, split, BoatConfig())
        assert base != build_digest(small_schema, 1001, split, BoatConfig())
        assert base != build_digest(
            small_schema, 1000, SplitConfig(min_samples_leaf=3), BoatConfig()
        )
        assert base != build_digest(small_schema, 1000, split, BoatConfig(seed=7))


class TestCrashAndResume:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_resumed_tree_is_byte_identical(
        self, disk_table, gini, split_config, tmp_path, n_workers
    ):
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(
            tmp_path,
            n_workers=n_workers,
            parallel_backend="thread" if n_workers > 1 else "auto",
        )
        crash_mid_cleanup(disk_table, gini, split_config, config)
        ckpt = config.checkpoint_dir
        units = unit_index(ckpt)
        assert units
        result = resume_build(disk_table, gini, split_config, config)
        assert tree_to_json(result.tree) == expected
        assert result.report.restored_units == len(units)
        # Success swept the recovery state and marked the build complete.
        assert checkpoint_files(ckpt) == ["meta.json"]
        assert load_checkpoint(ckpt).phase == "complete"

    def test_resume_with_different_batch_size(
        self, disk_table, gini, split_config, tmp_path
    ):
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        import dataclasses

        resumed = dataclasses.replace(config, batch_rows=777, n_workers=2,
                                      parallel_backend="thread")
        result = resume_build(disk_table, gini, split_config, resumed)
        assert tree_to_json(result.tree) == expected

    def test_two_scans_plus_reread_tail(
        self, disk_table, gini, split_config, tmp_path
    ):
        """Total table reads across crash + resume == 2n + re-read tail."""
        io = disk_table.io_stats
        config = recovery_config(tmp_path)
        before = io.snapshot()
        crash_mid_cleanup(disk_table, gini, split_config, config)
        crashed = io.delta_since(before)
        # The crashed build read the sample scan (n) plus a cleanup prefix;
        # stores were only written, never read, so the prefix is exact.
        cleanup_prefix = crashed.tuples_read - N_ROWS
        assert 0 < cleanup_prefix < N_ROWS
        checkpointed = unit_index(config.checkpoint_dir)[-1][1]
        assert 0 < checkpointed <= cleanup_prefix
        result = resume_build(disk_table, gini, split_config, config)
        # Restore reads no table rows; the resumed cleanup reads exactly
        # the rows past the checkpoint.
        assert result.report.io["restore"].tuples_read == 0
        tail_reads = result.report.io["cleanup_scan"].tuples_read
        assert tail_reads == N_ROWS - checkpointed
        # Distinct-read accounting: two scans plus only the re-read tail.
        total_scan_reads = crashed.tuples_read + tail_reads
        tail = cleanup_prefix - checkpointed
        assert total_scan_reads == 2 * N_ROWS + tail
        assert tail <= (config.checkpoint_every_batches + 1) * config.batch_rows

    def test_resume_after_failed_resume(
        self, disk_table, gini, split_config, tmp_path, monkeypatch
    ):
        """Durable state survives a resume that itself dies (in finalize)."""
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)

        import repro.core.boat as boat_module

        def dying_finalize(*args, **kwargs):
            raise OSError(5, "injected crash during finalization")

        monkeypatch.setattr(boat_module, "finalize_tree", dying_finalize)
        with pytest.raises(StorageError, match="finalization"):
            resume_build(disk_table, gini, split_config, config)
        monkeypatch.undo()
        # The failed resume checkpointed the full scan, so the second
        # resume re-reads zero rows and still finishes the identical tree.
        result = resume_build(disk_table, gini, split_config, config)
        assert result.report.io["cleanup_scan"].tuples_read == 0
        assert tree_to_json(result.tree) == expected

    def test_crash_in_finalize_rereads_nothing(
        self, disk_table, gini, split_config, tmp_path, monkeypatch
    ):
        """The build's last unit lands before finalization."""
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path)

        import repro.core.boat as boat_module

        def dying_finalize(*args, **kwargs):
            raise OSError(5, "injected crash during finalization")

        monkeypatch.setattr(boat_module, "finalize_tree", dying_finalize)
        with pytest.raises(StorageError, match="finalization"):
            boat_build(disk_table, gini, split_config, config)
        monkeypatch.undo()
        assert unit_index(config.checkpoint_dir)[-1][1] == N_ROWS
        result = resume_build(disk_table, gini, split_config, config)
        assert result.report.io["cleanup_scan"].tuples_read == 0
        assert tree_to_json(result.tree) == expected

    def test_crash_before_any_cleanup_checkpoint(
        self, disk_table, gini, split_config, tmp_path
    ):
        """A crash right after the skeleton save resumes from row zero."""
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path, checkpoint_every_batches=10_000)
        crash_mid_cleanup(disk_table, gini, split_config, config, fail_at_row=300)
        assert not os.path.exists(os.path.join(config.checkpoint_dir, "units.json"))
        result = resume_build(disk_table, gini, split_config, config)
        assert tree_to_json(result.tree) == expected

    def test_uninterrupted_checkpointed_build_matches_and_cleans_up(
        self, disk_table, gini, split_config, tmp_path
    ):
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path)
        io = disk_table.io_stats
        before = io.snapshot()
        result = boat_build(disk_table, gini, split_config, config)
        assert tree_to_json(result.tree) == expected
        assert io.delta_since(before).full_scans == 2
        ckpt = config.checkpoint_dir
        assert load_checkpoint(ckpt).phase == "complete"

    def test_successful_builds_leave_only_meta(
        self, disk_table, gini, split_config, tmp_path
    ):
        """No spill directory, an empty ``units/``: only ``meta.json``."""
        config = recovery_config(tmp_path)
        ckpt = config.checkpoint_dir
        boat_build(disk_table, gini, split_config, config)
        assert sorted(os.listdir(ckpt)) == ["meta.json", "units"]
        assert checkpoint_files(ckpt) == ["meta.json"]
        crash_mid_cleanup(disk_table, gini, split_config, config)
        assert "units.json" in checkpoint_files(ckpt)
        resume_build(disk_table, gini, split_config, config)
        assert sorted(os.listdir(ckpt)) == ["meta.json", "units"]
        assert checkpoint_files(ckpt) == ["meta.json"]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_kill_and_resume_gives_the_unchanged_tree(
        self, disk_table, gini, split_config, tmp_path, n_workers
    ):
        """At one spilled row per store, crash + resume gives the tree an
        uncheckpointed build gave before units replaced spill manifests."""
        config = recovery_config(
            tmp_path, n_workers=n_workers, parallel_backend="thread"
        )
        crash_mid_cleanup(disk_table, gini, split_config, config)
        result = resume_build(disk_table, gini, split_config, config)
        digest = hashlib.sha256(tree_to_json(result.tree).encode()).hexdigest()
        assert digest == BASELINE_SHA256

    def test_build_with_retries_survives_transient_cleanup_fault(
        self, disk_table, gini, split_config, tmp_path
    ):
        expected = baseline_json(disk_table, gini, split_config)
        faulty = FaultyTable(disk_table, "ioerror", fail_on_scan=1, fail_at_row=3000)
        config = recovery_config(
            tmp_path,
            checkpoint_dir=None,
            scan_retries=3,
            scan_retry_base_delay_s=0.0,
            scan_retry_max_delay_s=0.0,
        )
        result = boat_build(faulty, gini, split_config, config)
        assert tree_to_json(result.tree) == expected


class TestHoles:
    """A unit index with holes resumes: an uncovered row is one nothing
    has counted yet, so the resume scans it in row order."""

    @pytest.mark.parametrize("edit", ["first_not_at_zero", "hole"])
    def test_resume_counts_the_uncovered_rows(
        self, disk_table, gini, split_config, tmp_path, monkeypatch, edit
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        ckpt = config.checkpoint_dir
        index_path = os.path.join(ckpt, "units.json")
        with open(index_path) as fh:
            index = json.load(fh)
        units = index["units"]
        assert len(units) >= 3
        del units[0 if edit == "first_not_at_zero" else 1]
        with open(index_path, "w") as fh:
            json.dump(index, fh)
        uncovered = N_ROWS - sum(hi - lo for lo, hi in units)
        assert uncovered_intervals(units, N_ROWS)[0][0] == (
            0 if edit == "first_not_at_zero" else units[0][1]
        )
        # 200-row batches leave a partial unit at the end of each hole,
        # which must be closed there, not merged into the tail's unit.
        config = dataclasses.replace(config, batch_rows=200)
        twin = dataclasses.replace(config, checkpoint_dir=str(tmp_path / "twin"))
        shutil.copytree(ckpt, twin.checkpoint_dir)

        result = resume_build(disk_table, gini, split_config, config)
        digest = hashlib.sha256(tree_to_json(result.tree).encode()).hexdigest()
        assert digest == BASELINE_SHA256
        # DiskTable stops natively at a hole's end, so the resume reads
        # exactly the uncovered rows.  (A table without a native
        # ``stop_row`` would over-read at most one batch per hole.)
        assert result.report.io["cleanup_scan"].tuples_read == uncovered

        # A resume that dies in finalize has checkpointed every interval
        # it scanned: the index then tiles [0, n), and the next resume
        # re-reads nothing.
        import repro.core.boat as boat_module

        def dying_finalize(*args, **kwargs):
            raise OSError(5, "injected crash during finalization")

        monkeypatch.setattr(boat_module, "finalize_tree", dying_finalize)
        with pytest.raises(StorageError, match="finalization"):
            resume_build(disk_table, gini, split_config, twin)
        monkeypatch.undo()
        assert uncovered_intervals(unit_index(twin.checkpoint_dir), N_ROWS) == []
        result = resume_build(disk_table, gini, split_config, twin)
        assert result.report.io["cleanup_scan"].tuples_read == 0
        digest = hashlib.sha256(tree_to_json(result.tree).encode()).hexdigest()
        assert digest == BASELINE_SHA256

    def test_units_start_at_their_first_batch(
        self, disk_table, gini, split_config, tmp_path
    ):
        """A scan that starts after restored units, past a hole, writes
        units whose ``lo`` is where their first batch starts."""
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        skeleton = load_checkpoint(config.checkpoint_dir).skeleton
        root = restore_skeleton(skeleton, disk_table.schema, config, None)
        ckpt = str(tmp_path / "writer")
        manager = CheckpointManager(ckpt, every_batches=2)
        manager.begin(disk_table.schema, N_ROWS, "digest")
        manager.restore_units([(0, 1000)])
        cleanup_scan(
            root,
            disk_table,
            disk_table.schema,
            batch_rows=256,
            start_row=1500,
            stop_row=2500,
            record=manager.record_batch,
        )
        manager.close_unit()
        root.release()
        assert unit_index(ckpt) == [[0, 1000], [1500, 2012], [2012, 2500]]


class TestKillAndResume:
    """A real SIGKILL mid-cleanup, then a CLI ``--resume`` of the corpse."""

    def test_sigkill_during_cleanup_then_resume(self, tmp_path):
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def repro(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env=env,
                capture_output=True,
                text=True,
            )

        table = str(tmp_path / "train.tbl")
        done = repro("generate", table, "--n", "30000", "--seed", "4")
        assert done.returncode == 0, done.stderr

        baseline = str(tmp_path / "baseline.json")
        done = repro("build", table, baseline, "--sample-size", "2000",
                     "--bootstraps", "4", "--seed", "3")
        assert done.returncode == 0, done.stderr

        # Throttled checkpointed build: slow enough that polling for the
        # first cleanup checkpoint always wins the race against completion.
        ckpt = str(tmp_path / "ckpt")
        out = str(tmp_path / "tree.json")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "build", table, out,
             "--sample-size", "2000", "--bootstraps", "4", "--seed", "3",
             "--checkpoint", ckpt, "--checkpoint-every", "1",
             "--batch-rows", "1000", "--simulate-io-mbps", "1"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        units_dir = os.path.join(ckpt, "units")

        def unit_written():
            return os.path.isdir(units_dir) and any(
                name.endswith(".pkl") for name in os.listdir(units_dir)
            )

        deadline = time.monotonic() + 60.0
        try:
            while not unit_written():
                assert victim.poll() is None, "build finished before SIGKILL"
                assert time.monotonic() < deadline, "no checkpoint within 60s"
                time.sleep(0.01)
            victim.send_signal(signal.SIGKILL)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.wait()
        assert not os.path.exists(out)
        assert unit_written()

        done = repro("build", table, out, "--sample-size", "2000",
                     "--bootstraps", "4", "--seed", "3", "--resume", ckpt)
        assert done.returncode == 0, done.stderr
        assert "resumed from checkpoint" in done.stdout
        assert "checkpointed unit(s) restored" in done.stdout
        with open(out) as f_out, open(baseline) as f_base:
            assert f_out.read() == f_base.read()


def node_state(root):
    """Every node's statistics and store contents, preorder."""
    out = []
    for node in root.nodes():
        stats = [node.class_counts, node.below_counts, node.above_counts]
        stats += [node.cat_counts[i] for i in sorted(node.cat_counts)]
        stats += [node.bucket_counts[i] for i in sorted(node.bucket_counts)]
        for store in (node.held, node.family_store):
            stats.append(None if store is None else store.read_all())
        out.append(stats)
    return out


class TestUnitFiles:
    """The checkpoint's unit files: exact, and refused when damaged."""

    def test_merged_units_equal_a_scan_of_their_rows(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        ckpt = config.checkpoint_dir
        skeleton = load_checkpoint(ckpt).skeleton
        units = load_unit_results(ckpt, len(disk_table))
        covered = units[-1][1]
        merged = restore_skeleton(skeleton, disk_table.schema, config, None)
        merge_shard_stats(merged, (load() for _, _, load in units))
        scanned = restore_skeleton(skeleton, disk_table.schema, config, None)
        cleanup_scan(
            scanned, disk_table, disk_table.schema, batch_rows=100, stop_row=covered
        )
        for want, got in zip(node_state(scanned), node_state(merged)):
            assert len(want) == len(got)
            for a, b in zip(want, got):
                assert (a is None and b is None) or np.array_equal(a, b)
        merged.release()
        scanned.release()

    def test_torn_unit_files_are_ignored_and_swept(
        self, disk_table, gini, split_config, tmp_path
    ):
        """A unit written after the last index (or torn mid-write) is not
        recovery state: resume ignores it and success sweeps it."""
        expected = baseline_json(disk_table, gini, split_config)
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        units_dir = os.path.join(config.checkpoint_dir, "units")
        for name in ("unit-000000005000-000000005100.pkl",
                     "unit-000000005100-000000005200.pkl.tmp"):
            with open(os.path.join(units_dir, name), "wb") as fh:
                fh.write(b"torn")
        result = resume_build(disk_table, gini, split_config, config)
        assert tree_to_json(result.tree) == expected
        assert checkpoint_files(config.checkpoint_dir) == ["meta.json"]

    def test_missing_unit_file_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        units_dir = os.path.join(config.checkpoint_dir, "units")
        os.remove(os.path.join(units_dir, sorted(os.listdir(units_dir))[1]))
        with pytest.raises(RecoveryError, match="missing"):
            resume_build(disk_table, gini, split_config, config)

    def test_truncated_unit_file_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        units_dir = os.path.join(config.checkpoint_dir, "units")
        path = os.path.join(units_dir, sorted(os.listdir(units_dir))[1])
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        with pytest.raises(RecoveryError, match="unreadable"):
            resume_build(disk_table, gini, split_config, config)


class TestResumeGuards:
    def test_resume_requires_checkpoint_dir(self, disk_table, gini, split_config):
        with pytest.raises(RecoveryError, match="checkpoint_dir"):
            resume_build(disk_table, gini, split_config, BoatConfig())

    def test_resume_missing_directory(self, disk_table, gini, split_config, tmp_path):
        config = recovery_config(tmp_path, checkpoint_dir=str(tmp_path / "nope"))
        with pytest.raises(RecoveryError, match="metadata"):
            resume_build(disk_table, gini, split_config, config)

    def test_resume_completed_build_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        boat_build(disk_table, gini, split_config, config)
        with pytest.raises(RecoveryError, match="completed"):
            resume_build(disk_table, gini, split_config, config)

    def test_resume_before_skeleton_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        """A crash during the sampling phase leaves nothing to resume."""
        config = recovery_config(tmp_path)
        faulty = FaultyTable(disk_table, "ioerror", fail_on_scan=0, fail_at_row=100)
        with pytest.raises(StorageError):
            boat_build(faulty, gini, split_config, config)
        with pytest.raises(RecoveryError, match="sampling"):
            resume_build(disk_table, gini, split_config, config)

    def test_resume_config_mismatch_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        import dataclasses

        drifted = dataclasses.replace(config, seed=999)
        with pytest.raises(RecoveryError, match="digest"):
            resume_build(disk_table, gini, split_config, drifted)
        drifted_split = SplitConfig(min_samples_split=21, min_samples_leaf=5,
                                    max_depth=8)
        with pytest.raises(RecoveryError, match="digest"):
            resume_build(disk_table, gini, drifted_split, config)

    def test_overlapping_units_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        index_path = os.path.join(config.checkpoint_dir, "units.json")
        with open(index_path) as fh:
            index = json.load(fh)
        units = index["units"]
        assert len(units) >= 2
        units.append([units[0][0], units[1][1] + 1])
        with open(index_path, "w") as fh:
            json.dump(index, fh)
        with pytest.raises(RecoveryError, match="overlaps"):
            resume_build(disk_table, gini, split_config, config)

    def test_older_format_version_refused(
        self, disk_table, gini, split_config, tmp_path
    ):
        """A checkpoint of the spill-manifest format (version 1) is refused."""
        config = recovery_config(tmp_path)
        crash_mid_cleanup(disk_table, gini, split_config, config)
        meta_path = os.path.join(config.checkpoint_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["format_version"] = 1
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(RecoveryError, match="format version 1"):
            resume_build(disk_table, gini, split_config, config)

    def test_checkpoint_manager_validates_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), every_batches=0)
