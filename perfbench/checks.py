"""Correctness checks applied to every measured operation.

* Gini trees and forests must match, byte for byte, the fingerprint of
  their canonical JSON recorded in ``expected.json`` (BOAT's exactness
  contract).  A seed with no recorded fingerprint is checked against an
  independent build instead (see ``workloads.py``).
* The QUEST forest must reach the recorded held-out accuracy within
  :data:`QUEST_ACCURACY_TOL`, since QUEST trees are only equal up to float
  summation order, and every build must read the table exactly twice.
* HTTP labels must equal in-process ``CompiledForest.predict`` labels.
* ``stream_mixed`` versions must be monotone, every waited update must be
  acknowledged as applied, and the served model must equal a from-scratch
  build over the final row multiset.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Allowed absolute difference from the recorded QUEST held-out accuracy.
QUEST_ACCURACY_TOL = 0.002

#: Scans every BOAT build (tree or forest) must make.
FULL_SCANS = 2


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def recorded(expected: dict, workload: str, seed: int):
    """The recorded value for ``(workload, seed)``, or ``None``."""
    return expected.get(workload, {}).get(str(seed))


def check_fingerprint(got: str, want: str) -> list[str]:
    if got != want:
        return [f"tree fingerprint {got[:12]} != expected {want[:12]}"]
    return []


def check_scans(build: dict) -> list[str]:
    if build["full_scans"] != FULL_SCANS:
        return [f"build made {build['full_scans']} full scans, expected {FULL_SCANS}"]
    return []


def check_accuracy(got: float, want: float, tol: float = QUEST_ACCURACY_TOL) -> list[str]:
    if abs(got - want) > tol:
        return [f"held-out accuracy {got:.5f} differs from recorded {want:.5f} by more than {tol}"]
    return []


def check_labels(got: list[int], want: list[int]) -> list[str]:
    if list(got) != list(want):
        bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        return [f"{bad} of {len(want)} served labels differ from in-process prediction"]
    return []


def check_monotone(versions: list[int], strict: bool) -> list[str]:
    for a, b in zip(versions, versions[1:]):
        if b < a or (strict and b == a):
            return [f"model version went from {a} to {b}"]
    return []
