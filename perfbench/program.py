"""The program side of the benchmark: a child process that drives ``repro``.

The benchmark process (``run.py``) generates the inputs and passes this
process only paths.  The child prints ``READY`` once the program is set up
(interpreter started, ``repro`` imported, table opened) and waits for
``GO`` on stdin, so set-up time and peak memory belong to the workload.
Every result is one JSON line on stdout.

Modes:

* ``setup``: set up, print ``READY`` and exit (set-up time samples).
* ``build``: build the workload's tree or forest until ``--seconds`` have
  passed, timing :func:`loop_s` just before and after every build.  With ``--trace 1`` it builds once untraced, installs the
  :mod:`hooks`, builds once traced and reports the layer totals.
* ``replay-serve``: replay recorded /predict bodies in process through
  the public serving functions, untraced then traced.
* ``replay-stream``: replay recorded /update micro-batches in process
  through ``StreamService``, untraced then traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def wait_for_go() -> None:
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        sys.exit(3)


def canonical(data):
    """Model JSON without node ids, which record allocation order only.

    Two trees with equal structure, splits and class counts are the same
    tree (``repro.tree.trees_equal`` ignores ids too), however their
    builder numbered the nodes.
    """
    if isinstance(data, dict):
        is_node = "class_counts" in data and "depth" in data
        return {k: canonical(v) for k, v in data.items() if not (is_node and k == "id")}
    if isinstance(data, list):
        return [canonical(v) for v in data]
    return data


def fingerprint(model) -> str:
    """SHA-256 of the model's canonical JSON (trees and forests alike)."""
    from repro.forest.model import DecisionForest, forest_to_dict
    from repro.tree.serialize import tree_to_dict

    data = forest_to_dict(model) if isinstance(model, DecisionForest) else tree_to_dict(model)
    text = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def loop_s(n: int = 100_000) -> float:
    """Seconds for a fixed pure-Python dict loop: the machine's speed now."""
    counts: dict[int, int] = {}
    start = time.perf_counter()
    for i in range(n):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return time.perf_counter() - start


def copy_gb_per_s(nbytes: int) -> float:
    """Memory-copy bandwidth measured on a buffer of ``nbytes`` (median of 5)."""
    import numpy as np

    buf = np.ones(max(nbytes // 8, 1 << 20), dtype=np.float64)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copy(buf)
        times.append(time.perf_counter() - start)
    times.sort()
    return buf.nbytes / times[2] / 1e9


# -- builds --------------------------------------------------------------------


def build_once(spec: dict, table) -> tuple[dict, object]:
    from repro import (
        BoatConfig, ImpuritySplitSelection, QuestSplitSelection, SplitConfig,
        boat_build, forest_build,
    )
    from spec import boat_knobs

    io = table.io_stats
    io.reset()
    split = SplitConfig(min_samples_split=spec["min_split"])
    boat = BoatConfig(**boat_knobs(spec))
    method = QuestSplitSelection() if spec["method"] == "quest" else ImpuritySplitSelection("gini")
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    if spec["members"]:
        model = forest_build(table, spec["members"], method, split, boat).forest
    else:
        model = boat_build(table, method, split, boat).tree
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu0,
        "rows": len(table),
        "full_scans": io.full_scans,
        "bytes_read": io.bytes_read,
        "nodes": model.n_nodes,
        "fingerprint": fingerprint(model),
    }, model


def span_layers(rec) -> dict:
    """Layer totals read off the spans and counters of any traced run.

    A layer whose hook points all went missing is ``None``; a layer the
    run never entered is 0.
    """
    c = rec.counters

    def seconds(name):
        return rec.total(name) if rec.has(name) else None

    def counter(span, key):
        return c.get(key, 0) if rec.has(span) else None

    confirmed = counter("core.finalize.finalize", "core.finalize.confirmed")
    rebuilds = counter("core.finalize.finalize", "core.finalize.rebuilds")
    decided = (confirmed or 0) + (rebuilds or 0)
    return {
        "storage.scan_s": seconds("storage.scan"),
        "storage.sample_s": seconds("storage.sample"),
        "core.bootstrap.sampling_phase_s": seconds("core.bootstrap.sampling_phase"),
        "core.bootstrap.skeleton_nodes": counter(
            "core.bootstrap.sampling_phase", "core.bootstrap.skeleton_nodes"),
        "core.cleanup.cleanup_scan_s": seconds("core.cleanup.cleanup_scan"),
        "core.finalize.finalize_s": seconds("core.finalize.finalize"),
        "core.finalize.frontier_completions": counter(
            "core.finalize.finalize", "core.finalize.frontier_completions"),
        "core.finalize.rebuilds": rebuilds,
        "core.finalize.confirmed_frac": (
            None if confirmed is None else confirmed / decided if decided else 0.0),
        "tree.builder.build_reference_tree_s": seconds("tree.builder.build_reference_tree"),
        "tree.builder.calls": counter(
            "tree.builder.build_reference_tree", "tree.builder.build_reference_tree.calls"),
        **{
            f"kernels.{k}_s": seconds(f"kernels.{k}")
            for k in ("numeric_candidates", "weighted_impurity", "bucket_class_counts",
                      "interval_masks", "category_class_counts", "quest_numeric_moments")
        },
        "kernels.numeric_candidates_rows": counter(
            "kernels.numeric_candidates", "kernels.numeric_candidates.rows"),
    }


def layer_metrics(rec, build: dict, untraced_wall: float, copy_rate: float) -> dict:
    """Per-layer numbers of one traced build."""
    layers = span_layers(rec)
    wall, rows = build["wall_s"], build["rows"]
    cleanup = layers["core.cleanup.cleanup_scan_s"]
    cleanup_rate = rows / cleanup if cleanup else None
    copy_rows_per_s = copy_rate * 1e9 / build["row_bytes"]
    return {
        **layers,
        "storage.bytes_read": build["bytes_read"],
        "storage.bytes_per_row": build["bytes_read"] / rows,
        "storage.full_scans": build["full_scans"],
        "core.cleanup.rows_per_s": cleanup_rate,
        "core.cleanup.roofline_frac": cleanup_rate / copy_rows_per_s if cleanup_rate else None,
        "process.cpu_s": build["cpu_s"],
        "forest.cpu_frac": build["cpu_s"] / wall,
        "calib.copy_gb_per_s": copy_rate,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }


def open_tables(paths: list[str], mbps=None) -> list:
    from repro import DiskTable, IOStats

    return [DiskTable.open(path, IOStats(), simulated_mbps=mbps) for path in paths]


def save_model(model, path: str) -> None:
    from repro.forest.model import DecisionForest, forest_to_json
    from repro.tree.serialize import tree_to_json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(forest_to_json(model) if isinstance(model, DecisionForest) else tree_to_json(model))


def cmd_build(args) -> None:
    from spec import BUILDS

    spec = BUILDS[args.workload]
    tables = open_tables(args.tables, spec["mbps"])
    wait_for_go()
    if args.trace:
        import hooks

        untraced, _ = build_once(spec, tables[0])
        emit({"build": dict(untraced, table=0)})
        rec = hooks.install(hooks.Recorder(run_id=f"{args.workload}-build"))
        traced, model = build_once(spec, tables[0])
        traced["row_bytes"] = tables[0].schema.dtype().itemsize
        emit({"build": dict(traced, table=0)})
        save_model(model, os.path.join(args.out, "model-0.json"))
        rec.write_jsonl(os.path.join(args.out, "spans.jsonl"))
        layers = layer_metrics(rec, traced, untraced["wall_s"],
                               copy_gb_per_s(len(tables[0]) * traced["row_bytes"]))
        emit({"layers": layers, "missing_hooks": rec.missing})
    else:
        # Every table once, then round again until the time is up.
        start = time.perf_counter()
        done = 0
        while done < len(tables) or time.perf_counter() - start < args.seconds:
            k = done % len(tables)
            before = loop_s()
            result, model = build_once(spec, tables[k])
            result["loop_s"] = (before + loop_s()) / 2
            emit({"build": dict(result, table=k)})
            save_model(model, os.path.join(args.out, f"model-{k}.json"))
            done += 1
    emit({"done": True, "peak_rss_mb": peak_rss_mb()})


def cmd_setup(args) -> None:
    open_tables(args.tables)
    print("READY", flush=True)
    sys.stdin.readline()  # exit once the benchmark closes our stdin


# -- serving replays ------------------------------------------------------------


def replay_predicts(bodies: list[bytes], schema, batcher, rec=None) -> list[dict]:
    """Replay /predict bodies through parse → records_to_batch → batcher → encode."""
    from repro.serve import server as server_mod

    rows = []
    for body in bodies:
        t0 = time.perf_counter()
        payload = json.loads(body)
        t1 = time.perf_counter()
        batch = server_mod.records_to_batch(schema, payload["records"])
        t2 = time.perf_counter()
        n_spans = len(rec.spans) if rec is not None else 0
        ticket = batcher.submit(batch)
        result = ticket.result()
        t3 = time.perf_counter()
        json.dumps({"version": ticket.version, "rows": len(batch),
                    "labels": [int(v) for v in result]}).encode("utf-8")
        t4 = time.perf_counter()
        compute = 0.0
        if rec is not None:
            compute = sum(s.end - s.start for s in rec.spans[n_spans:]
                          if s.name == "serve.compute")
        rows.append({"parse": t1 - t0, "r2b": t2 - t1, "wait": t3 - t2 - compute,
                     "compute": compute, "encode": t4 - t3, "total": t4 - t0})
    return rows


def cmd_replay_serve(args) -> None:
    import hooks
    from repro import ModelRegistry, RequestBatcher, ServeConfig, load_model_json
    from stats import median

    with open(args.model, encoding="utf-8") as fh:
        model = load_model_json(fh.read())
    with open(args.bodies, "rb") as fh:
        bodies = [line.rstrip(b"\n") for line in fh if line.strip()]

    def replay(rec):
        registry = ModelRegistry()
        registry.publish(model)
        with RequestBatcher(registry, ServeConfig()) as batcher:
            return replay_predicts(bodies, model.schema, batcher, rec)

    untraced = replay(None)
    rec = hooks.install(hooks.Recorder(run_id="serve-replay"))
    traced = replay(rec)
    rec.write_jsonl(os.path.join(args.out, "spans.jsonl"))
    ms = lambda key: median(r[key] for r in traced) * 1000.0  # noqa: E731
    calls = rec.counters.get("serve.compute.calls", 0)
    emit({"layers": {
        **span_layers(rec),
        "serve.parse_ms": ms("parse"),
        "serve.records_to_batch_ms": ms("r2b"),
        "serve.queue_wait_ms": ms("wait") if rec.has("serve.compute") else None,
        "serve.compute_ms": ms("compute") if rec.has("serve.compute") else None,
        "serve.rows_per_batch": (rec.counters.get("serve.compute.rows", 0) / calls
                                 if calls else None),
        "serve.encode_ms": ms("encode"),
        "serve.replay_p50_ms": ms("total"),
        "calib.copy_gb_per_s": copy_gb_per_s(64 << 20),
        "trace.overhead_frac": ms("total") / (median(r["total"] for r in untraced) * 1000.0) - 1.0,
    }, "missing_hooks": rec.missing, "peak_rss_mb": peak_rss_mb()})


def cmd_replay_stream(args) -> None:
    import hooks
    import numpy as np
    from repro import (
        BoatConfig, DiskTable, IOStats, ImpuritySplitSelection, SplitConfig,
        StreamConfig, StreamService,
    )
    from repro.core import IncrementalBoat
    from spec import STREAM_TABLE, boat_knobs
    from stats import median

    updates = np.load(args.updates, allow_pickle=False)
    ops = [str(op) for op in np.load(args.ops, allow_pickle=False)]
    spec = STREAM_TABLE

    def replay(rec):
        table = DiskTable.open(args.table, IOStats())
        maintainer = IncrementalBoat.build(
            table, ImpuritySplitSelection("gini"),
            SplitConfig(min_samples_split=spec["min_split"]),
            BoatConfig(**boat_knobs(spec)),
        )
        table.close()
        if rec is not None:
            rec.spans.clear()
            rec.counters.clear()
        latencies, applies, publishes = [], [], []
        with StreamService(maintainer, StreamConfig()) as service:
            for op, chunk in zip(ops, np.split(updates, len(ops))):
                n_spans = len(rec.spans) if rec is not None else 0
                t0 = time.perf_counter()
                service.update(op, chunk)
                latencies.append(time.perf_counter() - t0)
                if rec is not None:
                    new = rec.spans[n_spans:]
                    applies.append(sum(s.end - s.start for s in new
                                       if s.name == "core.incremental.apply"))
                    publishes.append(sum(s.end - s.start for s in new
                                         if s.name == "serve.registry.publish"))
        maintainer.close()
        return latencies, applies, publishes

    untraced, _, _ = replay(None)
    rec = hooks.install(hooks.Recorder(run_id="stream-replay"))
    traced, applies, publishes = replay(rec)
    rec.write_jsonl(os.path.join(args.out, "spans.jsonl"))
    publish_ms = median(publishes) * 1000.0 if rec.has("serve.registry.publish") else None
    updates_n = rec.counters.get("core.incremental.updates", 0)
    emit({"layers": {
        **span_layers(rec),
        "core.incremental.rebuild_frac": (
            rec.counters.get("core.incremental.rebuilt_updates", 0) / updates_n
            if updates_n else None),
        "serve.registry.publish_ms": publish_ms,
        "stream.replay_update_p50_ms": median(traced) * 1000.0,
        "calib.copy_gb_per_s": copy_gb_per_s(64 << 20),
        "trace.overhead_frac": median(traced) / median(untraced) - 1.0,
    }, "applies_ms": ([a * 1000.0 for a in applies] if rec.has("core.incremental.apply")
                      else None),
        "missing_hooks": rec.missing, "peak_rss_mb": peak_rss_mb()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--tables", nargs="+", required=True)
    p = sub.add_parser("build")
    p.add_argument("--workload", required=True)
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("replay-serve")
    p.add_argument("--model", required=True)
    p.add_argument("--bodies", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("replay-stream")
    p.add_argument("--table", required=True)
    p.add_argument("--updates", required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "build": cmd_build, "replay-serve": cmd_replay_serve,
     "replay-stream": cmd_replay_stream}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
