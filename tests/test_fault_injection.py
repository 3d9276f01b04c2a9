"""Fault injection: storage failures mid-build must fail clean.

A failed build has two obligations: surface a single, catchable
:class:`ReproError` (never a raw :class:`OSError` or a numpy shape
blow-up), and leave nothing behind — every held/family store released,
every spill file deleted from the spill directory.
"""

from __future__ import annotations

import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import IncrementalBoat, boat_build
from repro.exceptions import RecoveryError, ReproError, SchemaError, StorageError
from repro.observability import Tracer
from repro.storage import (
    FAULT_KINDS,
    DiskTable,
    FaultyTable,
    IOStats,
    MemoryTable,
)

from .conftest import simple_xy_data


def spill_files(directory):
    return sorted(p.name for p in directory.glob("*.spill"))


@pytest.fixture
def disk_table(small_schema, tmp_path):
    io = IOStats()
    table = DiskTable.create(tmp_path / "train.tbl", small_schema, io)
    table.append(simple_xy_data(small_schema, 6000, seed=2, rule="xy"))
    io.reset()
    return table


def forced_spill_config(**overrides) -> BoatConfig:
    """Every held tuple spills immediately, so mid-build state is on disk."""
    defaults = dict(
        sample_size=500,
        bootstrap_repetitions=4,
        seed=3,
        spill_threshold_rows=1,
    )
    defaults.update(overrides)
    return BoatConfig(**defaults)


class TestFaultyTable:
    def test_rejects_unknown_kind(self, memory_table):
        with pytest.raises(ValueError, match="kind"):
            FaultyTable(memory_table, kind="meteor")

    def test_delegates_len_schema_and_io(self, small_schema):
        io = IOStats()
        inner = MemoryTable(
            small_schema, simple_xy_data(small_schema, 100), io_stats=io
        )
        faulty = FaultyTable(inner, fail_on_scan=5)
        assert len(faulty) == 100
        assert faulty.schema is small_schema
        assert faulty.io_stats is io

    def test_scans_before_the_target_run_clean(self, memory_table):
        faulty = FaultyTable(memory_table, kind="ioerror", fail_on_scan=1)
        rows = sum(len(b) for b in faulty.scan(100))
        assert rows == len(memory_table)
        assert faulty.scans_started == 1

    def test_ioerror_fires_at_the_configured_row(self, memory_table):
        faulty = FaultyTable(
            memory_table, kind="ioerror", fail_on_scan=0, fail_at_row=250
        )
        seen = 0
        with pytest.raises(OSError):
            for batch in faulty.scan(100):
                seen += len(batch)
        assert seen == 200  # batches before the faulting one arrived intact

    def test_short_read_raises_storage_error(self, memory_table):
        faulty = FaultyTable(memory_table, kind="short_read")
        with pytest.raises(StorageError, match="short read"):
            next(iter(faulty.scan(100)))

    def test_corrupt_row_raises_schema_error(self, memory_table):
        faulty = FaultyTable(memory_table, kind="corrupt_row", fail_at_row=42)
        with pytest.raises(SchemaError):
            list(faulty.scan(100))

    def test_offset_past_the_data_still_trips(self, memory_table):
        faulty = FaultyTable(
            memory_table, kind="ioerror", fail_at_row=10 * len(memory_table)
        )
        with pytest.raises(OSError):
            list(faulty.scan(100))

    def test_every_kind_is_exercised(self):
        assert set(FAULT_KINDS) == {"ioerror", "short_read", "corrupt_row"}


class TestBoatFailsClean:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("fail_on_scan", [0, 1], ids=["sampling", "cleanup"])
    def test_fault_surfaces_as_repro_error_and_leaves_no_spills(
        self,
        kind,
        fail_on_scan,
        disk_table,
        gini_method,
        default_split_config,
        tmp_path,
    ):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        faulty = FaultyTable(
            disk_table, kind=kind, fail_on_scan=fail_on_scan, fail_at_row=3000
        )
        with pytest.raises(ReproError):
            boat_build(
                faulty,
                gini_method,
                default_split_config,
                forced_spill_config(),
                spill_dir=str(spill_dir),
            )
        assert faulty.scans_started == fail_on_scan + 1
        assert spill_files(spill_dir) == []  # nothing left behind

    def test_cleanup_fault_happens_after_spilling_started(
        self, disk_table, gini_method, default_split_config, tmp_path
    ):
        """The no-leftovers assertion is only meaningful if spill files
        actually existed mid-build; prove the counter saw them."""
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        io = disk_table.io_stats
        faulty = FaultyTable(
            disk_table, kind="ioerror", fail_on_scan=1, fail_at_row=5500
        )
        with pytest.raises(ReproError):
            boat_build(
                faulty,
                gini_method,
                default_split_config,
                forced_spill_config(batch_rows=500),
                spill_dir=str(spill_dir),
            )
        assert io.spill_files > 0, "fault must land after spills were created"
        assert spill_files(spill_dir) == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_failure_at_any_worker_count(
        self, workers, disk_table, gini_method, default_split_config, tmp_path
    ):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        faulty = FaultyTable(
            disk_table, kind="ioerror", fail_on_scan=1, fail_at_row=3000
        )
        config = forced_spill_config(
            n_workers=workers, parallel_backend="thread"
        )
        with pytest.raises(StorageError):
            boat_build(
                faulty,
                gini_method,
                default_split_config,
                config,
                spill_dir=str(spill_dir),
            )
        assert spill_files(spill_dir) == []

    def test_raw_oserror_is_translated_to_storage_error(
        self, disk_table, gini_method, default_split_config
    ):
        faulty = FaultyTable(disk_table, kind="ioerror", fail_on_scan=1)
        with pytest.raises(StorageError, match="I/O failure") as excinfo:
            boat_build(
                faulty, gini_method, default_split_config, forced_spill_config()
            )
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_failed_build_trace_shows_the_dying_phase(
        self, disk_table, gini_method, default_split_config
    ):
        tracer = Tracer(disk_table.io_stats)
        faulty = FaultyTable(disk_table, kind="ioerror", fail_on_scan=1)
        with pytest.raises(ReproError):
            boat_build(
                faulty,
                gini_method,
                default_split_config,
                forced_spill_config(),
                tracer=tracer,
            )
        report = tracer.report()
        assert report.find("sample").status == "ok"
        assert report.find("cleanup").status == "error:OSError"
        assert report.find("boat_build").status == "error:OSError"
        assert report.find("finalize") is None  # never reached

    def test_successful_build_leaves_no_spills_either(
        self, disk_table, gini_method, default_split_config, tmp_path
    ):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        result = boat_build(
            disk_table,
            gini_method,
            default_split_config,
            forced_spill_config(),
            spill_dir=str(spill_dir),
        )
        assert result.report.mode == "boat"
        assert spill_files(spill_dir) == []


class TestIncrementalBuildFailsClean:
    """``IncrementalBoat.build`` runs inside the same harness guard."""

    def test_cleanup_fault_is_a_storage_error_with_no_spills(
        self, disk_table, gini_method, default_split_config, tmp_path
    ):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        io = disk_table.io_stats
        faulty = FaultyTable(
            disk_table, kind="ioerror", fail_on_scan=1, fail_at_row=5500
        )
        with pytest.raises(StorageError, match="I/O failure") as excinfo:
            IncrementalBoat.build(
                faulty,
                gini_method,
                default_split_config,
                forced_spill_config(batch_rows=500),
                spill_dir=str(spill_dir),
            )
        assert isinstance(excinfo.value.__cause__, OSError)
        assert io.spill_files > 0, "fault must land after spills were created"
        assert spill_files(spill_dir) == []

    def test_checkpoint_dir_refused_before_any_scan(
        self, disk_table, gini_method, default_split_config, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        io = disk_table.io_stats
        with pytest.raises(RecoveryError, match="checkpoint_dir"):
            IncrementalBoat.build(
                disk_table,
                gini_method,
                default_split_config,
                forced_spill_config(checkpoint_dir=str(ckpt)),
            )
        assert io.tuples_read == 0
        assert not ckpt.exists()
