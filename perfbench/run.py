"""Run one benchmark workload by name and seed; print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the traced run and prints every per-layer metric.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The ledger row (git SHA,
``nproc``, library versions, copy bandwidth, tail levels
and sample counts) goes to stderr and is appended to
``.perfbench_work/ledger.jsonl``.  Workloads and metrics are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from spec import WORKLOADS  # noqa: E402

#: A second seed kept out of tuning, for checking claims (see NOTES.md).
HELD_BACK_SEED = 7919


def benchmark_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "held_back_seed": HELD_BACK_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro next to perfbench/; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import checks
    from workloads import RUNNERS

    kind = "per_layer" if args.trace else "end_to_end"
    units = benchmark_metrics(kind)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    started = time.time()
    try:
        outcome = RUNNERS[args.workload](
            args.seed, args.seconds, bool(args.trace), work, checks.load_expected())
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(
                WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = sorted(set(outcome.metrics) - set(units))
    if unexpected:
        outcome.problems.append(f"metrics not in BENCHMARK.json: {unexpected}")
    missing = sorted(set(units) - set(outcome.metrics))
    if missing and not args.trace:
        outcome.problems.append(f"metrics not produced: {missing}")
    elif missing:
        # A layer this workload never enters spent no time and did no work.
        outcome.ledger["not_exercised"] = missing
        outcome.metrics.update(dict.fromkeys(missing, 0.0))
    metrics = {
        name: {"value": outcome.metrics.get(name), "unit": unit}
        for name, unit in units.items()
    }
    ledger = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, **environment(),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems[:20], **outcome.ledger,
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    if "calib.copy_gb_per_s" not in ledger["metrics"]:
        from program import copy_gb_per_s

        ledger["calib.copy_gb_per_s"] = copy_gb_per_s(64 << 20)
    line = json.dumps(ledger, default=str)
    print(line, file=sys.stderr)
    with open(os.path.join(WORK_ROOT, "ledger.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
