"""The five workloads, run from the benchmark process.

Each ``run_<kind>`` returns an :class:`Outcome`: attempted and failed
operation counts, the end-to-end metrics (untraced runs) or the per-layer
metrics (traced runs), and extra ledger fields.  Inputs are generated
here from the seed and written to disk; the program process receives
only paths.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import loadgen
import proc
from program import loop_s
from spec import (
    BUILDS, HOLDOUT_STREAM, QUEST_HOLDOUT_ROWS, REQUEST_ROWS, REQUEST_STREAM, SERVE_MODEL,
    SLO_MS, STREAM_TABLE, UPDATE_ROWS, UPDATE_STREAM, boat_knobs, data_seed, normalized,
)
from stats import median, tail

#: Number of program start-ups timed per run; ``setup_s`` is their median.
SETUPS = 3

#: serve_predict load, in shares of ``--seconds``: back-to-back requests
#: from two keep-alive callers, then open-loop rungs of one rate each.  The
#: first rung is the base rate; the rate doubles while it meets the SLO,
#: up to ``MAX_RPS``, then ``REFINE_STEPS`` geometric bisections between
#: the last rate that met it and the first that missed it resolve
#: ``max_rps`` to a factor of 2 ** (1 / 2 ** REFINE_STEPS), about 9%.
CALLERS = 2
CALLER_SHARE = 0.4
BASE_RPS = 20.0
MAX_RPS = 1280.0
REFINE_STEPS = 3
RUNG_SHARE = 0.2
WARMUP_SECONDS = 0.5

#: stream_mixed /predict rate beside the update connection.
STREAM_PREDICT_RPS = 20.0

#: stream_mixed inserts applied before the timed cycles, so that deletes
#: are drawn from several earlier inserts.
WARMUP_BATCHES = 4


#: Number of 32-row request bodies cycled by the load generator.
REQUEST_POOL = 128


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, messages: list[str]) -> bool:
        self.problems.extend(messages)
        return bool(messages)


# -- inputs ------------------------------------------------------------------


def generator(spec: dict, seed):
    from repro import AgrawalConfig, AgrawalGenerator
    from repro.datagen.agrawal import drifted_function_1

    drift = spec["drift_age"]
    return AgrawalGenerator(AgrawalConfig(
        function_id=spec["function"], noise=spec["noise"],
        label_fn=drifted_function_1(drift) if drift is not None else None,
    ), seed=seed)


def write_table(path: str, spec: dict, seed) -> str:
    from repro import DiskTable

    gen = generator(spec, seed)
    table = DiskTable.create(path, gen.schema)
    gen.fill_table(table, spec["rows"])
    table.close()
    return path


def records(batch: np.ndarray, with_label: bool = False) -> list[dict]:
    names = [n for n in batch.dtype.names if with_label or n != "class_label"]
    cols = {n: batch[n].tolist() for n in names}
    return [{n: cols[n][i] for n in names} for i in range(len(batch))]


def time_setups(start, count: int) -> list[float]:
    """Start the program ``count`` times, timing spawn → ready, then stop it."""
    times = []
    for _ in range(count):
        child, seconds = start()
        times.append(seconds)
        child.stop()
    return times


# -- build workloads -----------------------------------------------------------


def run_build(name: str, seed: int, seconds: float, trace: bool, work: str,
              expected: dict) -> Outcome:
    spec = BUILDS[name]
    out = Outcome()
    tables = [
        write_table(os.path.join(work, f"train-{k}.tbl"), spec, data_seed(seed, k))
        for k in range(spec["tables"])
    ]

    def start_setup():
        child = proc.program("setup", "--tables", *tables)
        return child, proc.wait_ready(child)

    setups = [] if trace else time_setups(start_setup, SETUPS - 1)
    child = proc.program("build", "--workload", name, "--seconds", str(seconds),
                         "--trace", str(int(trace)), "--out", work, "--tables", *tables)
    try:
        setups.append(proc.wait_ready(child))
        child.send("GO")
        builds, layers = [], None
        while True:
            msg = json.loads(child.readline())
            if "build" in msg:
                builds.append(msg["build"])
            elif "layers" in msg:
                layers = msg["layers"]
                out.ledger["missing_hooks"] = msg["missing_hooks"]
            elif msg.get("done"):
                peak = msg["peak_rss_mb"]
                break
    finally:
        child.stop()

    want = expected_models(name, seed, spec, tables, expected)
    for build in builds:
        out.attempted += 1
        problems = checks.check_scans(build)
        k = build["table"]
        if spec["method"] == "gini":
            problems += checks.check_fingerprint(build["fingerprint"], want[k])
        elif build["fingerprint"] != builds[k]["fingerprint"]:
            problems.append(f"two QUEST forests over table {k} differ")
        out.failed += out.fail(problems)
    if spec["method"] == "quest":
        accuracy = {}
        for k in sorted({b["table"] for b in builds}):
            got = accuracy[k] = quest_accuracy(os.path.join(work, f"model-{k}.json"), spec, seed)
            bad = (checks.check_accuracy(got, want[k]) if want is not None
                   else checks.check_accuracy(got, 1.0, tol=0.01))
            if out.fail(bad):
                out.failed = out.attempted
        out.ledger["quest_holdout_accuracy"] = accuracy

    walls = [b["wall_s"] for b in builds]
    out.ledger.update(builds=len(builds), tree_nodes=[b["nodes"] for b in builds],
                      full_scans=[b["full_scans"] for b in builds],
                      io_bytes_per_row=builds[-1]["bytes_read"] / spec["rows"],
                      build_wall_s=walls)
    if trace:
        out.metrics = layers
        return out
    loops = [b["loop_s"] for b in builds]
    out.ledger.update(build_p50_ms=median(walls) * 1000.0, loop_p50_ms=median(loops) * 1000.0)
    walls = [normalized(w, loop, spec["loop_elasticity"]) for w, loop in zip(walls, loops)]
    op_s = median(walls)
    value, label, n = tail(w * 1000.0 for w in walls)
    out.ledger.update(op_tail_ms=value, op_tail=label, op_samples=n, setup_samples_s=setups)
    out.metrics = {
        "setup_s": median(setups),
        "rows_per_s": spec["rows"] / op_s,
        "op_ms": op_s * 1000.0,
        "peak_rss_mb": peak,
    }
    return out


def expected_models(name, seed, spec, tables, expected):
    """Recorded values per table, or independent exact builds for a new seed.

    Gini trees come from the in-memory reference builder, which BOAT must
    match exactly.  A seed without recorded QUEST accuracies gives ``None``
    (the accuracy is then checked against 1.0).
    """
    want = checks.recorded(expected, name, seed)
    if want is not None or spec["method"] != "gini":
        return want
    from program import fingerprint
    from repro import DiskTable, ImpuritySplitSelection, SplitConfig, build_reference_tree

    prints = []
    for path in tables:
        with DiskTable.open(path) as t:
            data, schema = t.read_all(), t.schema
        prints.append(fingerprint(build_reference_tree(
            data, schema, ImpuritySplitSelection("gini"),
            SplitConfig(min_samples_split=spec["min_split"]))))
    return prints


def quest_accuracy(model_path: str, spec: dict, seed: int) -> float:
    from repro import load_model_json

    with open(model_path, encoding="utf-8") as fh:
        model = load_model_json(fh.read())
    holdout = generator(spec, data_seed(seed, HOLDOUT_STREAM))
    rows = holdout.generate(QUEST_HOLDOUT_ROWS)
    return float((model.predict(rows) == rows["class_label"]).mean())


# -- serve_predict -------------------------------------------------------------


def build_served_forest(seed: int, n_workers: int = 1):
    from repro import BoatConfig, ImpuritySplitSelection, MemoryTable, SplitConfig, forest_build

    spec = SERVE_MODEL
    gen = generator(spec, data_seed(seed, 0))
    table = MemoryTable(gen.schema, gen.generate(spec["rows"]))
    config = BoatConfig(**boat_knobs(spec), n_workers=n_workers,
                        parallel_backend="thread")
    return forest_build(table, spec["members"], ImpuritySplitSelection("gini"),
                        SplitConfig(min_samples_split=spec["min_split"]), config).forest


def request_pool(spec: dict, seed: int, model) -> tuple[list[bytes], list[list[int]]]:
    gen = generator(spec, data_seed(seed, REQUEST_STREAM))
    rows = gen.generate(REQUEST_POOL * REQUEST_ROWS)
    compiled = model.compile()
    bodies, labels = [], []
    for k in range(REQUEST_POOL):
        batch = rows[k * REQUEST_ROWS:(k + 1) * REQUEST_ROWS]
        bodies.append(json.dumps({"records": records(batch)}).encode("utf-8"))
        labels.append([int(v) for v in compiled.predict(batch)])
    return bodies, labels


def score_samples(result: loadgen.LoadResult, labels, out: Outcome) -> list[float]:
    """Check every response; return the latencies (ms) of the good ones."""
    latencies = []
    out.attempted += result.attempted
    missing = result.attempted - len(result.samples)
    out.failed += missing
    out.fail(result.errors)
    for s in result.samples:
        problems = [] if s.status == 200 else [f"HTTP {s.status}: {s.body[:80]!r}"]
        if not problems and labels is not None:
            body = json.loads(s.body)
            problems = checks.check_labels(body["labels"], labels[s.index % REQUEST_POOL])
        if out.fail(problems):
            out.failed += 1
        else:
            latencies.append(s.latency_s * 1000.0)
    return latencies


def lateness(results) -> dict:
    late = [s.late_s * 1000.0 for r in results for s in r.samples]
    return {"gen_late_p50_ms": median(late), "gen_late_max_ms": max(late)}


def run_serve_predict(seed: int, seconds: float, trace: bool, work: str,
                      expected: dict) -> Outcome:
    from program import fingerprint
    from repro.forest.model import forest_to_json

    out = Outcome()
    forest = build_served_forest(seed)
    want = checks.recorded(expected, "serve_predict", seed)
    if want is None:  # a new seed: a second build at another worker count must agree
        want = fingerprint(build_served_forest(seed, n_workers=2))
    forest_bad = out.fail(checks.check_fingerprint(fingerprint(forest), want))
    model_path = os.path.join(work, "forest.json")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(forest_to_json(forest))
    bodies, labels = request_pool(SERVE_MODEL, seed, forest)

    def start_setup():
        child, _, setup = proc.serve(model_path)
        return child, setup

    setups = [] if trace else time_setups(start_setup, SETUPS - 1)
    child, port, setup = proc.serve(model_path)
    setups.append(setup)
    body = lambda i: bodies[i % REQUEST_POOL]  # noqa: E731
    runs, passed = [], {}

    def meets_slo(rate: float) -> bool:
        rung = loadgen.open_loop("127.0.0.1", port, "/predict", body, rate,
                                 RUNG_SHARE * seconds)
        runs.append(rung)
        failed_before = out.failed
        ms = score_samples(rung, labels, out)
        if out.failed > failed_before or not ms or tail(ms)[0] > SLO_MS:
            return False
        passed[rate] = (len(rung.samples) / rung.elapsed_s, ms)
        return True

    try:
        loadgen.open_loop("127.0.0.1", port, "/predict", body, BASE_RPS, WARMUP_SECONDS)
        calls = loadgen.closed_loop("127.0.0.1", port, "/predict", body, CALLERS,
                                    CALLER_SHARE * seconds)
        call_ms = score_samples(calls, labels, out)
        best_rate = None
        if meets_slo(BASE_RPS):
            best_rate = BASE_RPS if trace else rate_search(meets_slo)
        peak = child.peak_rss_mb()
    finally:
        child.stop()
    if forest_bad:
        out.failed = out.attempted  # every answer came from a wrong forest
    if best_rate is None:
        out.fail([f"even {BASE_RPS:g} req/s misses the {SLO_MS:g} ms SLO"])
        best_rate, best_rps, base_ms = 0.0, 0.0, [0.0]
    else:
        best_rps, base_ms = passed[best_rate][0], passed[BASE_RPS][1]
    p50 = median(call_ms)
    value, label, n = tail(call_ms)
    b_value, b_label, b_n = tail(base_ms)
    out.ledger.update(max_rps=best_rate, max_rps_measured=best_rps, rungs=[r.rate for r in runs],
                      op_tail_ms=value, op_tail=label, op_samples=n, base_rps=BASE_RPS,
                      base_p50_ms=median(base_ms), base_tail_ms=b_value, base_tail=b_label,
                      base_samples=b_n, setup_samples_s=setups, **lateness(runs))
    if trace:
        bodies_path = os.path.join(work, "bodies.jsonl")
        with open(bodies_path, "wb") as fh:
            for s in calls.samples:
                fh.write(bodies[s.index % REQUEST_POOL] + b"\n")
        out.metrics = replay(
            proc.program("replay-serve", "--model", model_path, "--bodies", bodies_path,
                         "--out", work), out)["layers"]
        replay_p50 = out.metrics.pop("serve.replay_p50_ms")
        out.metrics["serve.http_overhead_ms"] = p50 - replay_p50
        out.ledger.update(replay_p50_ms=replay_p50)
        return out
    out.metrics = {
        "setup_s": median(setups),
        "rows_per_s": best_rps * REQUEST_ROWS,
        "op_ms": p50,
        "peak_rss_mb": peak,
    }
    return out


def rate_search(meets_slo) -> float:
    """Highest rate found to meet the SLO, given that :data:`BASE_RPS` does."""
    lo, hi = BASE_RPS, 2 * BASE_RPS
    while hi <= MAX_RPS and meets_slo(hi):
        lo, hi = hi, 2 * hi
    if hi > MAX_RPS:
        return lo
    for _ in range(REFINE_STEPS):
        mid = (lo * hi) ** 0.5
        if meets_slo(mid):
            lo = mid
        else:
            hi = mid
    return lo


def replay(child: proc.Child, out: Outcome) -> dict:
    """The message of a replaying program process, after stopping it."""
    try:
        msg = json.loads(child.readline())
    finally:
        child.stop()
    out.ledger["missing_hooks"] = msg["missing_hooks"]
    return msg


# -- stream_mixed --------------------------------------------------------------


def stream_args(table: str) -> list[str]:
    spec = STREAM_TABLE
    return [table, "--stream", "--method", "gini", "--sample-size", str(spec["sample_size"]),
            "--bootstraps", str(spec["bootstraps"]), "--min-split", str(spec["min_split"])]


def run_stream_mixed(seed: int, seconds: float, trace: bool, work: str,
                     expected: dict) -> Outcome:
    spec = STREAM_TABLE
    out = Outcome()
    table = write_table(os.path.join(work, "train.tbl"), spec, data_seed(seed, 0))
    fresh = generator(spec, data_seed(seed, UPDATE_STREAM))
    probe = fresh.generate(1000)
    pool = generator(spec, data_seed(seed, REQUEST_STREAM)).generate(REQUEST_POOL * REQUEST_ROWS)
    bodies = [json.dumps({"records": records(pool[k * REQUEST_ROWS:(k + 1) * REQUEST_ROWS])})
              .encode("utf-8") for k in range(REQUEST_POOL)]
    rng = np.random.default_rng(seed)

    def start_setup():
        child, _, setup = proc.serve(*stream_args(table))
        return child, setup

    setups = [] if trace else time_setups(start_setup, SETUPS - 1)
    child, port, setup = proc.serve(*stream_args(table))
    setups.append(setup)
    holder = {}

    def predicts():
        holder["result"] = loadgen.open_loop(
            "127.0.0.1", port, "/predict", lambda i: bodies[i % REQUEST_POOL],
            STREAM_PREDICT_RPS, seconds, connections=1)

    try:
        reader = threading.Thread(target=predicts)
        reader.start()
        with loadgen.Connection("127.0.0.1", port) as conn:
            ops, sent, live, cycles, versions = send_updates(conn, seconds, fresh, rng, out)
        reader.join()
        with loadgen.Connection("127.0.0.1", port) as conn:
            status, body = conn.request(
                "POST", "/predict", json.dumps({"records": records(probe)}).encode("utf-8"))
        served_probe = json.loads(body)["labels"] if status == 200 else []
        peak = child.peak_rss_mb()
    finally:
        child.stop()

    result = holder["result"]
    predict_ms = score_samples(result, None, out)
    predict_versions = [json.loads(s.body)["version"] for s in result.samples
                        if s.status == 200]
    bad = checks.check_monotone(versions, strict=True)
    bad += checks.check_monotone(predict_versions, strict=False)
    bad += final_model_check(table, live, probe, served_probe)
    if out.fail(bad):
        out.failed = out.attempted
    cycle_ms = [c["insert"] + c["delete"] for c in cycles]
    norm_ms = [normalized(ms, c["loop_s"], spec["loop_elasticity"])
               for ms, c in zip(cycle_ms, cycles)]
    value, label, n = tail(norm_ms)
    p_value, p_label, p_n = tail(predict_ms)
    out.ledger.update(updates=len(ops), final_version=versions[-1] if versions else None,
                      op_tail_ms=value, op_tail=label, op_samples=n,
                      cycle_p50_ms=median(cycle_ms),
                      loop_p50_ms=median(c["loop_s"] for c in cycles) * 1000.0,
                      insert_p50_ms=median(c["insert"] for c in cycles),
                      delete_p50_ms=median(c["delete"] for c in cycles),
                      predict_p50_ms=median(predict_ms), predict_tail_ms=p_value,
                      predict_tail=p_label, predict_samples=p_n, setup_samples_s=setups,
                      **lateness([result]))
    if trace:
        updates_path = os.path.join(work, "updates.npy")
        ops_path = os.path.join(work, "ops.npy")
        np.save(updates_path, np.concatenate(sent))
        np.save(ops_path, np.array(ops))
        msg = replay(
            proc.program("replay-stream", "--table", table, "--updates", updates_path,
                         "--ops", ops_path, "--out", work), out)
        out.metrics = msg["layers"]
        out.ledger.update(replay_update_p50_ms=out.metrics.pop("stream.replay_update_p50_ms"))
        out.metrics.update(stream_apply_layers(msg["applies_ms"], cycles, cycle_ms))
        return out
    out.metrics = {
        "setup_s": median(setups),
        "rows_per_s": 2 * UPDATE_ROWS / (median(norm_ms) / 1000.0),
        "op_ms": median(norm_ms),
        "peak_rss_mb": peak,
    }
    return out


def stream_apply_layers(applies_ms, cycles, cycle_ms) -> dict:
    """``core.incremental.apply_ms`` and ``stream.ingest_wait_ms`` per cycle.

    The replay applied the same updates in the same order, warm-up inserts
    first; an apply includes the registry publish it triggers.  Per cycle,
    since inserts and deletes cost very different amounts.
    """
    if applies_ms is None:  # the apply hook point is missing
        return {"core.incremental.apply_ms": None, "stream.ingest_wait_ms": None}
    timed = applies_ms[WARMUP_BATCHES:]
    applies = [timed[2 * k] + timed[2 * k + 1] for k in range(len(cycles))]
    return {
        "core.incremental.apply_ms": median(applies),
        "stream.ingest_wait_ms": median(ms - a for ms, a in zip(cycle_ms, applies)),
    }


def send_updates(conn, seconds: float, fresh, rng, out: Outcome):
    """Waited insert/delete cycles, back to back, for ``seconds``.

    :data:`WARMUP_BATCHES` untimed inserts go first.  Each timed cycle then
    inserts a fresh batch and deletes a whole live insert batch drawn at
    random, so the live row count stays constant, then times
    ``program.loop_s``.  Returns the operations, the batches sent, the live
    insert batches, the timed cycles (``insert`` and ``delete`` latencies in
    ms, ``loop_s`` in s) and the acknowledged versions.
    """
    ops, sent, live, cycles, versions = [], [], [], [], []

    def update(op: str, chunk) -> float | None:
        payload = json.dumps({"op": op, "records": records(chunk, True), "wait": True})
        t0 = time.perf_counter()
        status, body = conn.request("POST", "/update", payload.encode("utf-8"))
        ms = (time.perf_counter() - t0) * 1000.0
        out.attempted += 1
        reply = json.loads(body) if status == 200 else {}
        if status != 200 or reply.get("applied") != len(chunk) or reply.get("op") != op:
            out.failed += out.fail([f"update {len(ops)}: HTTP {status} {body[:80]!r}"])
            return None
        versions.append(reply["version"])
        ops.append(op)
        sent.append(chunk)
        if op == "insert":
            live.append(chunk)
        return ms

    for _ in range(WARMUP_BATCHES):
        if update("insert", fresh.generate(UPDATE_ROWS)) is None:
            return ops, sent, live, cycles, versions
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        ins = update("insert", fresh.generate(UPDATE_ROWS))
        if ins is None:
            break
        dele = update("delete", live.pop(int(rng.integers(len(live)))))
        if dele is None:
            break
        cycles.append({"insert": ins, "delete": dele, "loop_s": loop_s()})
    return ops, sent, live, cycles, versions


def final_model_check(table, live, probe, served) -> list[str]:
    """Served labels on ``probe`` must equal a from-scratch build's labels.

    Deletes remove whole earlier insert batches, so the final row multiset
    is the table plus the insert batches still ``live``.
    """
    from repro import (
        BoatConfig, DiskTable, ImpuritySplitSelection, MemoryTable, SplitConfig, boat_build,
    )

    spec = STREAM_TABLE
    with DiskTable.open(table) as t:
        base, schema = t.read_all(), t.schema
    rows = np.concatenate([base, *live])
    tree = boat_build(MemoryTable(schema, rows), ImpuritySplitSelection("gini"),
                      SplitConfig(min_samples_split=spec["min_split"]),
                      BoatConfig(**boat_knobs(spec))).tree
    return checks.check_labels(served, [int(v) for v in tree.predict(probe)])


RUNNERS = {
    **{name: (lambda name: lambda *a: run_build(name, *a))(name) for name in BUILDS},
    "serve_predict": run_serve_predict,
    "stream_mixed": run_stream_mixed,
}
