"""Record the reference outputs the correctness checks compare against.

For each seed this builds, at the current commit and with the workloads'
exact knobs, the gini trees of every ``build_scan`` and ``build_deep``
table and the forest of ``serve_predict`` (canonical-JSON fingerprints),
and scores the ``quest_forest_slowdisk`` forest of every table on its
held-out rows.  The throttle is
left off: it only adds sleeps, never changes a model.  Results are merged
into ``expected.json`` after every seed.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 0-31 7919
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from program import build_once, fingerprint, save_model  # noqa: E402
from spec import BUILDS, data_seed  # noqa: E402
from workloads import build_served_forest, quest_accuracy, write_table  # noqa: E402


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_seed(seed: int, work: str) -> dict:
    from repro import DiskTable, IOStats

    values = {}
    for name, spec in BUILDS.items():
        values[name] = []
        for k in range(spec["tables"]):
            path = write_table(os.path.join(work, "train.tbl"), spec, data_seed(seed, k))
            with DiskTable.open(path, IOStats()) as table:
                build, model = build_once(spec, table)
            if spec["method"] == "gini":
                values[name].append(build["fingerprint"])
            else:
                model_path = os.path.join(work, "model.json")
                save_model(model, model_path)
                values[name].append(quest_accuracy(model_path, spec, seed))
    values["serve_predict"] = fingerprint(build_served_forest(seed))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges such as 0-31")
    args = parser.parse_args(argv)
    work = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(work)
    try:
        for seed in parse_seeds(args.seeds):
            values = record_seed(seed, work)
            expected = checks.load_expected()
            for name, value in values.items():
                expected.setdefault(name, {})[str(seed)] = value
            tmp = checks.EXPECTED_PATH + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(expected, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, checks.EXPECTED_PATH)
            print(seed, values, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
