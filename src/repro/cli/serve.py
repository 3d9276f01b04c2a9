"""``predict`` and ``serve``: the compiled serving kernel, batch and HTTP.

Both ``serve MODEL.json`` and ``serve --stream TABLE`` run the one asyncio
HTTP front end (:class:`~repro.serve.PredictionServer`; the stream mode's
:class:`~repro.stream.StreamServer` adds ``POST /update``).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..forest import load_model_json
from ..observability import NULL_TRACER, Tracer, format_trace, write_jsonl
from ..storage import IOStats


def _cmd_predict(args: argparse.Namespace) -> int:
    from .build import open_flat_table

    with open(args.tree, encoding="utf-8") as fh:
        tree = load_model_json(fh.read())
    io = IOStats()
    table = open_flat_table(args.table, io)
    if table.schema != tree.schema:
        print("error: table schema does not match the model's schema",
              file=sys.stderr)
        return 2
    predictor = tree.compile()
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    total = 0
    start = time.perf_counter()
    try:
        for batch in table.scan(args.batch_rows):
            if args.proba:
                rows = predictor.predict_proba(batch)
                if out is not None:
                    for row in rows:
                        out.write(" ".join(f"{p:.6f}" for p in row) + "\n")
            else:
                labels = predictor.predict(batch)
                if out is not None:
                    out.write("\n".join(str(int(v)) for v in labels) + "\n")
            total += len(batch)
    finally:
        if out is not None:
            out.close()
    elapsed = time.perf_counter() - start
    rate = total / elapsed if elapsed > 0 else float("inf")
    kind = "probabilities" if args.proba else "labels"
    print(
        f"predicted {total} rows in {elapsed:.3f}s ({rate:,.0f} rows/s, "
        f"compiled kernel, {predictor.n_nodes} nodes)"
    )
    if args.out:
        print(f"{kind} written to {args.out}")
    print(f"I/O: {io}")
    return 0


def _serve_until_done(server, max_requests: int | None) -> None:
    """Block until ``max_requests`` successful answers, or Ctrl-C."""
    try:
        while max_requests is None or server.served_requests < max_requests:
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass


def _print_trace(tracer, dest: str | None) -> None:
    if dest is None:
        return
    report = tracer.report()
    if dest == "-":
        print(format_trace(report))
    else:
        write_jsonl(report, dest)
        print(f"trace written to {dest}")


def _cmd_serve_stream(args: argparse.Namespace) -> int:
    """``serve --stream``: online-learning loop over a training table.

    The positional argument names a *table* (not a saved tree): the
    initial model is built from it, then the asyncio front end accepts
    insert/delete micro-batches on POST /update while POST /predict
    serves hot-swapped trees — the closed update→maintain→publish→serve
    loop.
    """
    from ..config import BoatConfig, SplitConfig
    from ..core import IncrementalBoat
    from ..serve import ServeConfig
    from ..splits import QuestSplitSelection, get_method
    from ..stream import (
        RebuildMaintainer,
        StreamConfig,
        StreamServer,
        StreamService,
    )
    from .build import open_flat_table

    io = IOStats()
    table = open_flat_table(args.tree, io)
    split_config = SplitConfig(
        min_samples_split=args.min_split, max_depth=args.max_depth
    )
    tracer = Tracer(io) if args.trace is not None else NULL_TRACER
    if args.method == "quest":
        # QUEST has no §4 incremental path; maintain by exact rebuild.
        maintainer = RebuildMaintainer.from_chunk(
            table.read_all(), table.schema, QuestSplitSelection(), split_config
        )
    else:
        maintainer = IncrementalBoat.build(
            table,
            get_method(args.method),
            split_config,
            BoatConfig(
                sample_size=args.sample_size,
                bootstrap_repetitions=args.bootstraps,
                seed=args.seed,
            ),
            tracer=tracer,
        )
    table.close()
    config = StreamConfig(
        queue_rows=args.queue_rows,
        staleness_slo_s=args.staleness_slo,
        serve=ServeConfig(
            max_batch_size=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            queue_capacity=args.queue_capacity,
            default_timeout_s=args.timeout,
        ),
    )
    service = StreamService(maintainer, config, tracer=tracer)
    with service, StreamServer(service, host=args.host, port=args.port) as server:
        print(
            f"streaming {args.tree} ({maintainer.n_rows} rows, "
            f"{args.method}) on {server.url}",
            flush=True,
        )
        print(
            f"  ingest: queue {config.queue_rows} rows, staleness SLO "
            f"{config.staleness_slo_s:g}s; POST /update, /predict",
            flush=True,
        )
        _serve_until_done(server, args.max_requests)
        service.drain()
        stats = service.stats()
    maintainer.close()
    latency = stats["serve"]["latency"]
    print(
        f"applied {stats['maintain']['applied_updates']} update(s) "
        f"({stats['maintain']['patch_updates']} patched, "
        f"{stats['maintain']['rebuild_updates']} rebuilt) to model "
        f"v{stats['model_version']}; served {stats['serve']['requests']} "
        f"prediction request(s), p99 {latency['p99_ms']}ms, "
        f"staleness {stats['staleness_s']}s"
    )
    _print_trace(tracer, args.trace)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..serve import ModelRegistry, PredictionServer, ServeConfig

    if args.stream:
        return _cmd_serve_stream(args)
    with open(args.tree, encoding="utf-8") as fh:
        tree = load_model_json(fh.read())
    tracer = Tracer() if args.trace is not None else NULL_TRACER
    registry = ModelRegistry(tracer=tracer)
    registry.publish(tree)
    config = ServeConfig(
        max_batch_size=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_capacity=args.queue_capacity,
        default_timeout_s=args.timeout,
    )
    server = PredictionServer(
        registry, config, host=args.host, port=args.port, tracer=tracer
    )
    with server:
        print(f"serving {args.tree} on {server.url}", flush=True)
        print(
            f"  batching: max {config.max_batch_size} rows / "
            f"{config.max_delay_ms:g} ms delay, queue "
            f"{config.queue_capacity} rows",
            flush=True,
        )
        _serve_until_done(server, args.max_requests)
    stats = server.batcher.stats()
    latency = stats["latency"]
    print(
        f"served {stats['requests']} requests / {stats['rows']} rows in "
        f"{stats['batches']} batches (p50 {latency['p50_ms']}ms, "
        f"p99 {latency['p99_ms']}ms, {stats['timeouts']} timeouts, "
        f"{stats['rejected']} rejected)"
    )
    _print_trace(tracer, args.trace)
    return 0


def register(sub) -> None:
    predict = sub.add_parser(
        "predict", help="batch inference through the compiled serving kernel"
    )
    predict.add_argument(
        "tree", help="model JSON path (a saved tree or forest)"
    )
    predict.add_argument("table", help="table path")
    predict.add_argument("--out", default=None, help="write predictions here")
    predict.add_argument(
        "--proba", action="store_true", help="emit class probabilities"
    )
    predict.add_argument("--batch-rows", type=int, default=65536)
    predict.set_defaults(fn=_cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="run the batched HTTP prediction server on a saved model "
        "(tree or forest)",
    )
    serve.add_argument(
        "tree",
        help="model JSON path — a saved tree or forest (with --stream: a "
        "training *table* path)",
    )
    serve.add_argument(
        "--stream",
        action="store_true",
        help="online-learning mode: build from the table, then accept "
        "insert/delete micro-batches on POST /update while serving "
        "hot-swapped trees (asyncio front end)",
    )
    serve.add_argument(
        "--method",
        choices=["gini", "entropy", "interclass_variance", "quest"],
        default="gini",
        help="split selection for --stream (quest maintains by rebuild)",
    )
    serve.add_argument("--sample-size", type=int, default=20_000)
    serve.add_argument("--bootstraps", type=int, default=20)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--min-split", type=int, default=2)
    serve.add_argument("--max-depth", type=int, default=None)
    serve.add_argument(
        "--queue-rows",
        type=int,
        default=1 << 18,
        help="maximum buffered update rows before backpressure (--stream)",
    )
    serve.add_argument(
        "--staleness-slo",
        type=float,
        default=5.0,
        help="advertised staleness objective in seconds (--stream)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8331)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1024,
        help="dispatch a batch once this many rows are coalesced",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="dispatch an under-full batch after at most this delay",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=65536,
        help="maximum queued rows before backpressure (HTTP 429)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request timeout in seconds (HTTP 504)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="exit after serving this many /predict requests (smoke tests)",
    )
    serve.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="record serve/serve_batch spans; with PATH write JSONL",
    )
    serve.set_defaults(fn=_cmd_serve)
