"""Chaos drills: kill workers and coordinators mid-build, finish anyway.

Three escalating drills prove the elastic cluster's kill-and-continue
story:

* a deterministic **kill-at-offset matrix** — a shard worker dies at a
  chosen cleanup batch (``FaultyTransport("abort_scan")``), across
  shards × offsets × transports × cluster shapes, and every build still
  produces the flat reference tree with two scans per shard and zero
  spill litter;
* a real **TCP kill drill** (``@pytest.mark.chaos``, the CI chaos smoke
  job) — a loopback shard *server process* hard-kills itself
  (``os._exit``) mid-cleanup at a seed-chosen batch
  (``REPRO_CHAOS_SEED``), the client sees the connection drop mid-frame,
  and failover re-reads the partition locally;
* a **coordinator SIGKILL drill** — a checkpointed sharded build run as
  a real CLI subprocess is ``SIGKILL``\\ ed the moment its first unit
  checkpoint lands, then ``--resume`` finishes it byte-identically
  without re-scanning the checkpointed rows.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.recovery import RetryPolicy
from repro.shard import (
    ElasticPolicy,
    FaultyTransport,
    make_transport,
    sharded_boat_build,
)
from repro.shard.rpc import LocalShardCluster, TcpTransport
from repro.splits import ImpuritySplitSelection
from repro.storage import DiskTable, IOStats, ShardedTable, partition_table
from repro.tree import tree_diff, tree_to_json, trees_equal

N_ROWS = 4098
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=5)
FAST_RETRY = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05)


def _config(n_workers: int = 1) -> BoatConfig:
    return BoatConfig(
        sample_size=800,
        bootstrap_repetitions=8,
        seed=5,
        batch_rows=512,
        n_workers=n_workers,
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
def shard_dirs(tmp_path_factory, flat_table):
    dirs = {}
    for k in (1, 2, 4):
        directory = tmp_path_factory.mktemp(f"shards{k}")
        partition_table(flat_table, directory, k)
        dirs[k] = directory
    return dirs


def _killed_worker_build(
    shard_dir,
    shard_id: int,
    at_batch: int,
    spill_dir,
    inner_kind: str = "inprocess",
    n_workers: int = 1,
):
    """One drill: kill shard ``shard_id`` at cleanup batch ``at_batch``."""
    table = ShardedTable.open(shard_dir, IOStats())
    inner = make_transport(inner_kind, table.shard_paths)
    faulty = FaultyTransport(
        inner,
        "abort_scan",
        shard_id=shard_id,
        at_request=1,  # request 0 is the sample gather; 1 is the cleanup
        at_batch=at_batch,
        shard_paths=table.shard_paths,
    )
    try:
        result = sharded_boat_build(
            table,
            _method(),
            SPLIT,
            _config(n_workers),
            spill_dir=str(spill_dir),
            transport=faulty,
            elastic=ElasticPolicy(retry=FAST_RETRY),
        )
    finally:
        faulty.close()
        table.close()
    return result, faulty


def _assert_recovered(result, faulty, reference_tree, spill_dir, k):
    assert trees_equal(result.tree, reference_tree), tree_diff(
        result.tree, reference_tree
    )
    report = result.shard_report
    assert report.failovers >= 1
    assert faulty.faults_injected == 1
    # The dead attempt's partial accumulation is discarded wholesale;
    # only the winning re-execution is charged, so the per-shard
    # two-scan invariant holds — no already-counted row was re-scanned
    # beyond the failed unit itself.
    assert [io.full_scans for io in report.shard_io] == [2] * k
    assert all(v.ok for v in report.verdicts)
    assert list(Path(spill_dir).iterdir()) == []


class TestKillAtOffsetMatrix:
    """Worker death at (shard s, cleanup batch b): always recovered."""

    @pytest.mark.parametrize("shard_id", [0, 1])
    @pytest.mark.parametrize("at_batch", [1, 3])
    def test_kill_shard_at_batch(
        self, shard_dirs, reference_tree, tmp_path, shard_id, at_batch
    ):
        result, faulty = _killed_worker_build(
            shard_dirs[2], shard_id, at_batch, tmp_path
        )
        _assert_recovered(result, faulty, reference_tree, tmp_path, 2)

    def test_kill_over_process_transport(
        self, shard_dirs, reference_tree, tmp_path
    ):
        result, faulty = _killed_worker_build(
            shard_dirs[2], 1, 2, tmp_path, inner_kind="process"
        )
        _assert_recovered(result, faulty, reference_tree, tmp_path, 2)


class TestKillAndContinueShapes:
    """The acceptance matrix: K × workers, one worker killed per build."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matrix(self, shard_dirs, reference_tree, tmp_path, k, n_workers):
        result, faulty = _killed_worker_build(
            shard_dirs[k], k - 1, 2, tmp_path, n_workers=n_workers
        )
        _assert_recovered(result, faulty, reference_tree, tmp_path, k)


@pytest.mark.chaos
class TestTcpKillDrill:
    """A real shard-server process dies mid-cleanup; the build continues.

    The kill point is drawn from ``REPRO_CHAOS_SEED`` so the CI chaos
    smoke job can sweep a seed matrix over the same test.
    """

    def test_server_death_recovers_over_tcp(
        self, shard_dirs, reference_tree, tmp_path
    ):
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
        rng = random.Random(seed)
        shard_id = rng.randrange(2)
        at_batch = rng.randint(1, 3)
        spill = tmp_path / "spill"
        spill.mkdir()
        table = ShardedTable.open(shard_dirs[2], IOStats())
        try:
            chaos = {shard_id: {"die_at_cleanup_batch": at_batch}}
            with LocalShardCluster(table.shard_paths, chaos=chaos) as cluster:
                transport = TcpTransport(
                    cluster.addresses,
                    timeout_s=30,
                    policy=RetryPolicy(
                        max_retries=1, base_delay_s=0.01, max_delay_s=0.1
                    ),
                )
                try:
                    result = sharded_boat_build(
                        table,
                        _method(),
                        SPLIT,
                        _config(),
                        spill_dir=str(spill),
                        transport=transport,
                        elastic=ElasticPolicy(retry=FAST_RETRY),
                    )
                finally:
                    transport.close()
        finally:
            table.close()
        assert trees_equal(result.tree, reference_tree), (
            f"seed {seed} (shard {shard_id}, batch {at_batch}): "
            + tree_diff(result.tree, reference_tree)
        )
        report = result.shard_report
        assert report.failovers >= 1
        assert [io.full_scans for io in report.shard_io] == [2, 2]
        assert list(spill.iterdir()) == []


class TestCoordinatorSigkill:
    """SIGKILL the whole coordinator process; ``--resume`` finishes it."""

    CLI_ARGS = [
        "--method", "gini",
        "--sample-size", "800",
        "--bootstraps", "8",
        "--seed", "5",
        "--batch-rows", "512",
        "--min-split", "20",
        "--min-leaf", "5",
        "--max-depth", "5",
    ]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        return env

    def _spawn_and_kill(self, shard_dir, out, ckpt, mbps):
        """Start a checkpointed CLI build, SIGKILL it at its first unit
        checkpoint.  Returns True if the kill landed mid-build."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "build",
                str(shard_dir), str(out),
                "--checkpoint", str(ckpt),
                "--simulate-io-mbps", str(mbps),
                *self.CLI_ARGS,
            ],
            env=self._env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        units = Path(ckpt) / "units"
        deadline = time.monotonic() + 120
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # build outran us — the attempt is void
            if units.is_dir() and any(
                name.endswith(".pkl") for name in os.listdir(units)
            ):
                proc.kill()
                killed = True
                break
            time.sleep(0.002)
        proc.wait(timeout=120)
        return killed and proc.returncode != 0

    def test_sigkilled_coordinator_resumes_byte_identically(
        self, shard_dirs, reference_tree, tmp_path
    ):
        reference_json = tree_to_json(reference_tree, indent=2)
        out = tmp_path / "tree.json"
        # Throttle the build so the window between the first unit
        # checkpoint and completion is wide; escalate if the host is
        # fast enough to finish before the kill lands.
        for attempt, mbps in enumerate((0.12, 0.06, 0.03)):
            ckpt = tmp_path / f"ckpt{attempt}"
            if self._spawn_and_kill(shard_dirs[2], out, ckpt, mbps):
                break
        else:
            pytest.skip("build completed before SIGKILL on every attempt")
        # The kill left a resumable checkpoint: skeleton + >=1 unit.
        assert (ckpt / "skeleton.json").exists()
        assert any(
            name.endswith(".pkl") for name in os.listdir(ckpt / "units")
        )
        resume = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "build",
                str(shard_dirs[2]), str(out),
                "--resume", str(ckpt),
                *self.CLI_ARGS,
            ],
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert f"resumed from checkpoint {ckpt}" in resume.stdout
        assert "unit(s) restored" in resume.stdout
        assert out.read_text() == reference_json
        # Success consumed the checkpoint's recovery state.
        assert not (ckpt / "units.json").exists()
