"""``generate`` and ``build``: synthetic data and BOAT tree construction.

``build`` accepts either a flat :class:`~repro.storage.DiskTable` file or
a shard directory written by ``repro shard`` (detected by the manifest);
``--shards N`` partitions a flat table on the fly into a temporary shard
directory so the data-parallel path can be exercised in one command.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack

from ..config import KERNEL_BACKENDS, PARALLEL_BACKENDS, BoatConfig, SplitConfig
from ..datagen import AgrawalConfig, AgrawalGenerator
from ..observability import NULL_TRACER, Tracer, format_trace, write_jsonl
from ..splits import ImpuritySplitSelection, QuestSplitSelection
from ..storage import DiskTable, IOStats
from ..tree import tree_summary, tree_to_json


def _cmd_generate(args: argparse.Namespace) -> int:
    config = AgrawalConfig(
        function_id=args.function, noise=args.noise, extra_numeric=args.extra
    )
    generator = AgrawalGenerator(config, seed=args.seed)
    if args.backend == "sql":
        from ..storage import SqlTable

        table = SqlTable.create(args.out, generator.schema)
    else:
        table = DiskTable.create(args.out, generator.schema)
    with table:
        generator.fill_table(table, args.n)
    print(
        f"wrote {args.n} tuples (function {args.function}, noise "
        f"{args.noise:.0%}, {args.extra} extra attrs) to {args.out}"
        + (" [sqlite]" if args.backend == "sql" else "")
    )
    return 0


def _is_sqlite_file(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(16) == b"SQLite format 3\x00"
    except OSError:
        return False


def open_flat_table(path: str, io: IOStats, *, simulated_mbps: float = 0.0):
    """Open a flat training table, auto-detecting the sqlite backend."""
    if _is_sqlite_file(path):
        from ..storage import SqlTable

        return SqlTable.open(path, io_stats=io)
    return DiskTable.open(path, io, simulated_mbps=simulated_mbps)


def _method(args: argparse.Namespace):
    if args.method == "quest":
        return QuestSplitSelection(kernels=args.kernel_backend)
    return ImpuritySplitSelection(args.method, kernels=args.kernel_backend)


def _build_flat(
    args: argparse.Namespace,
    io: IOStats,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    tracer,
):
    from ..core import boat_build

    backend = args.backend
    if backend == "auto":
        backend = "sql" if _is_sqlite_file(args.table) else "disk"
    if backend == "sql":
        from ..storage import SqlTable

        # The sqlite file is the device; there is no byte stream to
        # throttle, so --simulate-io-mbps does not apply here.
        table = SqlTable.open(args.table, io_stats=io)
    else:
        table = DiskTable.open(
            args.table, io, simulated_mbps=args.simulate_io_mbps
        )
    method = _method(args)
    if args.resume is not None:
        from ..recovery import resume_build

        result = resume_build(
            table, method, split_config, boat_config, tracer=tracer
        )
        print(f"resumed from checkpoint {args.resume}")
        return result.tree
    result = boat_build(table, method, split_config, boat_config, tracer=tracer)
    return result.tree


def _build_sharded(
    args: argparse.Namespace,
    io: IOStats,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    tracer,
):
    from ..shard import make_transport, sharded_boat_build
    from ..storage import ShardedTable, partition_table

    scratch = None
    table = None
    try:
        if os.path.isdir(args.table):
            table = ShardedTable.open(
                args.table, io, simulated_mbps=args.simulate_io_mbps
            )
        else:
            scratch = tempfile.mkdtemp(prefix="repro-shards-")
            with DiskTable.open(args.table, IOStats()) as source:
                partition_table(
                    source, scratch, args.shards, batch_rows=args.batch_rows
                )
            table = ShardedTable.open(
                scratch, io, simulated_mbps=args.simulate_io_mbps
            )
        method = _method(args)
        if isinstance(method, QuestSplitSelection):
            from ..core import boat_build

            # The coordinator merges integer statistics only; QUEST reads
            # the sharded table directly through its scan API.
            result = boat_build(
                table, method, split_config, boat_config, tracer=tracer
            )
            print(f"quest build over {table.n_shards} shard(s) (direct scan)")
            return result.tree
        if args.resume is not None:
            from ..shard import resume_sharded_build as entry
        else:
            entry = sharded_boat_build
        with ExitStack() as stack:
            transport = args.shard_transport
            if transport == "tcp":
                from ..shard.rpc import LocalShardCluster

                cluster = stack.enter_context(LocalShardCluster(table.shard_paths))
                transport = stack.enter_context(
                    make_transport(
                        "tcp", table.shard_paths, addresses=cluster.addresses
                    )
                )
            result = entry(
                table,
                method,
                split_config,
                boat_config,
                tracer=tracer,
                transport=transport,
                shard_simulated_mbps=args.simulate_io_mbps,
            )
        report = result.shard_report
        scans = [stats.full_scans for stats in report.shard_io]
        if report.resumed:
            print(
                f"resumed from checkpoint {boat_config.checkpoint_dir} "
                f"({report.restored_units} checkpointed unit(s) restored)"
            )
        print(
            f"sharded build: {report.n_shards} shard(s) via "
            f"{report.transport}, per-shard scans {scans}"
        )
        if report.failovers:
            print(f"elastic: {report.failovers} failover(s)")
        return result.tree
    finally:
        if table is not None:
            table.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _build_forest(
    args: argparse.Namespace,
    io: IOStats,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    tracer,
):
    from ..forest import forest_build

    method = _method(args)
    table = open_flat_table(
        args.table, io, simulated_mbps=args.simulate_io_mbps or 0.0
    )
    with table:
        return forest_build(
            table,
            args.forest,
            method,
            split_config,
            boat_config,
            tracer=tracer,
            oob=args.oob,
        )


def _cmd_build(args: argparse.Namespace) -> int:
    if args.resume is not None and args.checkpoint is not None:
        print("error: --resume already names the checkpoint; drop --checkpoint",
              file=sys.stderr)
        return 2
    sharded = os.path.isdir(args.table) or args.shards is not None
    if args.forest is not None:
        if args.forest < 1:
            print("error: --forest must be >= 1", file=sys.stderr)
            return 2
        if sharded:
            print("error: --forest builds share one flat-table scan; shard "
                  "directories and --shards are not supported", file=sys.stderr)
            return 2
        if args.resume is not None or args.checkpoint is not None:
            print("error: --checkpoint/--resume is not supported for forest "
                  "builds", file=sys.stderr)
            return 2
        if args.sql_pushdown:
            print("error: --sql-pushdown applies to single-tree builds",
                  file=sys.stderr)
            return 2
    elif args.oob:
        print("error: --oob is a forest estimate; add --forest M", file=sys.stderr)
        return 2
    if sharded and (args.backend == "sql" or args.sql_pushdown):
        print("error: --backend sql/--sql-pushdown is for flat tables; "
              "sharded builds scan shard files", file=sys.stderr)
        return 2
    if sharded:
        if os.path.isdir(args.table) and args.shards is not None:
            print("error: --shards is for flat tables; the table argument "
                  "is already a shard directory", file=sys.stderr)
            return 2
        if args.shards is not None and args.shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
    io = IOStats()
    split_config = SplitConfig(
        min_samples_split=args.min_split,
        min_samples_leaf=args.min_leaf,
        max_depth=args.max_depth,
        split_sample_rows=args.split_sample_rows,
    )
    boat_config = BoatConfig(
        sample_size=args.sample_size,
        bootstrap_repetitions=args.bootstraps,
        seed=args.seed,
        batch_rows=args.batch_rows,
        n_workers=args.workers,
        parallel_backend=args.parallel_backend,
        checkpoint_dir=args.resume if args.resume is not None else args.checkpoint,
        checkpoint_every_batches=args.checkpoint_every,
        scan_retries=args.scan_retries,
        kernel_backend=args.kernel_backend,
        sql_pushdown=args.sql_pushdown,
    )
    tracer = Tracer(io) if args.trace is not None else NULL_TRACER
    if args.forest is not None:
        from ..forest import forest_to_json

        result = _build_forest(args, io, split_config, boat_config, tracer)
        forest, report = result.forest, result.report
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(forest_to_json(forest, indent=2))
        print(
            f"forest: {forest.n_members} member(s), {forest.n_nodes} nodes "
            f"({report.mode} mode, {report.workers} worker(s), shared scans)"
        )
        for member, tree in zip(report.members, forest.members):
            print(f"  member {member.index} (build seed {member.build_seed}): "
                  f"{tree_summary(tree)}")
        if report.oob_error is not None:
            print(f"out-of-bag error: {report.oob_error:.4%} "
                  f"(coverage {report.oob_coverage:.1%})")
        print(f"I/O: {io}")
        print(f"forest written to {args.out}")
    else:
        if sharded:
            tree = _build_sharded(args, io, split_config, boat_config, tracer)
        else:
            tree = _build_flat(args, io, split_config, boat_config, tracer)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(tree_to_json(tree, indent=2))
        print(tree_summary(tree))
        print(f"I/O: {io}")
        print(f"tree written to {args.out}")
    if args.trace is not None:
        report = tracer.report()
        if args.trace == "-":
            print(format_trace(report))
        else:
            write_jsonl(report, args.trace)
            print(f"trace ({report.total('full_scans')} full scans) "
                  f"written to {args.trace}")
    return 0


def register(sub) -> None:
    gen = sub.add_parser("generate", help="write a synthetic training table")
    gen.add_argument("out", help="output table path")
    gen.add_argument("--n", type=int, default=100_000)
    gen.add_argument("--function", type=int, default=1, choices=range(1, 11))
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--extra", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--backend",
        default="disk",
        choices=["disk", "sql"],
        help="table format: the paged .tbl file (default) or a sqlite "
        "database trainable in place (see docs/SQL.md)",
    )
    gen.set_defaults(fn=_cmd_generate)

    build = sub.add_parser("build", help="build a tree with BOAT")
    build.add_argument(
        "table", help="training table path (a flat .tbl file or a shard "
        "directory written by `repro shard`)"
    )
    build.add_argument("out", help="output tree JSON path")
    build.add_argument(
        "--method",
        default="gini",
        choices=["gini", "entropy", "interclass_variance", "quest"],
    )
    build.add_argument("--sample-size", type=int, default=20_000)
    build.add_argument("--bootstraps", type=int, default=20)
    build.add_argument("--min-split", type=int, default=2)
    build.add_argument("--min-leaf", type=int, default=1)
    build.add_argument("--max-depth", type=int, default=None)
    build.add_argument("--seed", type=int, default=42)
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for the sampling/cleanup phases (0 = all CPUs); "
        "the output tree is identical at any setting",
    )
    build.add_argument(
        "--parallel-backend",
        default="auto",
        choices=list(PARALLEL_BACKENDS),
        help="execution backend; 'auto' picks a process pool when workers > 1",
    )
    build.add_argument(
        "--kernel-backend",
        default="numpy",
        choices=list(KERNEL_BACKENDS),
        help="statistics kernel implementation: 'numpy' (vectorized, "
        "default) or 'python' (per-row reference); the output tree is "
        "byte-identical under either (see docs/KERNELS.md)",
    )
    build.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "disk", "sql"],
        help="how to read a flat table: 'auto' (default) detects a "
        "sqlite database by its file header, 'disk'/'sql' force the "
        "paged-file or SQL backend; the output tree is byte-identical "
        "either way (see docs/SQL.md)",
    )
    build.add_argument(
        "--sql-pushdown",
        action="store_true",
        help="with the sql backend, compute the cleanup scan's per-node "
        "statistics as grouped aggregation queries inside the database "
        "and export only held/family rows; a placement knob, never the "
        "tree (ignored for non-SQL tables and checkpointed builds)",
    )
    build.add_argument(
        "--forest",
        type=int,
        default=None,
        metavar="M",
        help="build a bagged ensemble of M exact BOAT trees sharing the "
        "two physical scans (one sample gather + one cleanup scan feed "
        "all members); writes a forest JSON servable by `repro serve` "
        "(see docs/FORESTS.md)",
    )
    build.add_argument(
        "--oob",
        action="store_true",
        help="with --forest, also report the out-of-bag error estimate, "
        "computed from the same shared cleanup scan (no extra pass)",
    )
    build.add_argument(
        "--split-sample-rows",
        type=int,
        default=None,
        metavar="K",
        help="evaluate numeric split candidates on a deterministic "
        "K-row subsample of each node family instead of every row; a "
        "speed/accuracy trade-off that changes the tree (part of its "
        "identity, recorded in the model), ignored by QUEST",
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition a flat table into K shards on the fly and run the "
        "data-parallel build; the output tree is identical to the "
        "unsharded build's (see docs/SHARDING.md)",
    )
    build.add_argument(
        "--shard-transport",
        default="inprocess",
        choices=["inprocess", "process", "tcp"],
        help="how shard scans are dispatched; 'tcp' starts one loopback "
        "shard server per shard",
    )
    build.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="record a phase trace; with PATH write spans as JSONL, "
        "without print the span tree to stdout",
    )
    build.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="make the build crash-safe: persist the skeleton and "
        "cleanup-scan progress under DIR so a killed build can be "
        "finished with --resume DIR; sharded builds checkpoint each "
        "completed shard unit and may even be resumed at a different "
        "shard count after `repro reshard` (see docs/RECOVERY.md)",
    )
    build.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="finish a killed checkpointed build from DIR; the tree is "
        "byte-identical to the uninterrupted build's",
    )
    build.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        metavar="N",
        help="cleanup-scan batches between checkpoints (default 16)",
    )
    build.add_argument(
        "--scan-retries",
        type=int,
        default=0,
        metavar="N",
        help="absorb up to N transient I/O errors per scan, re-reading "
        "from the last good offset with exponential backoff",
    )
    build.add_argument(
        "--batch-rows",
        type=int,
        default=65536,
        help="scan batch granularity (speed only, never the tree)",
    )
    build.add_argument(
        "--simulate-io-mbps",
        type=float,
        default=None,
        metavar="MBPS",
        help="throttle table I/O to model a sequential device "
        "(benchmarks and kill-and-resume tests)",
    )
    build.set_defaults(fn=_cmd_build)
