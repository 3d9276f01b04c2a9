"""Workload definitions shared by the benchmark process and the program process.

Every input is Agrawal data generated from the workload seed with
:mod:`repro.datagen`; the build knobs (BOAT's own seed included) are fixed,
so two runs on one seed build the same trees and two seeds differ only in
their data.  See ``NOTES.md`` for why each workload exists.

A build workload builds ``tables`` different tables per run and reports
the median: how much work BOAT does depends on its data (whether the
bootstrap trees agree, whether a coarse split is refuted and rebuilt), and
a median over several tables keeps one unlucky table from moving a run.

Timings are loop-normalized (:func:`normalized`): the speed of Python code
on a shared VM flips by up to 2x for seconds to minutes at a time, so each
operation is scaled by a fixed Python loop timed next to it
(``program.loop_s``), raised to the workload's ``loop_elasticity``: the
share of its time that slows with the loop.  See ``NOTES.md``.
"""

from __future__ import annotations

#: Build workloads: one child process opens the table and builds repeatedly.
#: ``drift_age`` replaces F1's upper age boundary (60) by this age, as
#: ``repro.datagen.drifted_function_1`` does for the paper's Figure 14.
#: Plain F1 and F3 have two near-equal age thresholds (40 and 60), so
#: whether BOAT's bootstrap trees agree, or a coarse split is refuted and
#: rebuilt, is a coin flip per table that moves a build's time by up to
#: 70%; the drifted boundary makes the first split unambiguous.
BUILDS = {
    "build_scan": dict(
        function=1, drift_age=70.0, noise=0.0, rows=500_000, tables=2, method="gini",
        members=0, sample_size=10_000, bootstraps=10, min_split=1000, mbps=None,
        loop_elasticity=0.5,
    ),
    "build_deep": dict(
        function=7, drift_age=None, noise=0.1, rows=6_000, tables=10, method="gini",
        members=0, sample_size=1_500, bootstraps=10, min_split=50, mbps=None,
        loop_elasticity=1.0,
    ),
    "quest_forest_slowdisk": dict(
        function=1, drift_age=None, noise=0.0, rows=200_000, tables=2, method="quest",
        members=4, sample_size=5_000, bootstraps=10, min_split=1000, mbps=10.0,
        loop_elasticity=0.0,
    ),
}

#: Seconds ``program.loop_s()`` takes when this VM runs at its fast speed:
#: the scale of loop-normalized times.
LOOP_REF_S = 0.012

#: Held-out rows scored by the QUEST forest check.
QUEST_HOLDOUT_ROWS = 20_000

#: The forest ``serve_predict`` serves, built before the clock starts
#: (``sample_size >= rows`` takes BOAT's in-memory switch, so it is quick).
SERVE_MODEL = dict(
    function=1, drift_age=None, noise=0.05, rows=10_000, members=4,
    sample_size=10_000, bootstraps=5, min_split=200,
)

#: The table ``stream_mixed`` serves from, and its build knobs.
STREAM_TABLE = dict(
    function=1, drift_age=70.0, noise=0.0, rows=200_000,
    sample_size=5_000, bootstraps=10, min_split=1000, loop_elasticity=1.0,
)

#: Rows per /predict request and per /update micro-batch.
REQUEST_ROWS = 32
UPDATE_ROWS = 200

#: Serving SLO: the tail (by the sample-count rule) at or under this.
SLO_MS = 100.0

WORKLOADS = tuple(BUILDS) + ("serve_predict", "stream_mixed")

#: Random streams drawn from one workload seed: training table ``k`` uses
#: stream ``k``; rows that must not be training rows use these.
HOLDOUT_STREAM = 100
REQUEST_STREAM = 101
UPDATE_STREAM = 102


def data_seed(seed: int, stream: int) -> list[int]:
    """Generator seed of one stream of a workload seed (independent streams)."""
    return [seed, stream]


def normalized(seconds: float, loop_s: float, elasticity: float) -> float:
    """``seconds`` scaled to the speed at which the loop takes ``LOOP_REF_S``."""
    return seconds * (LOOP_REF_S / loop_s) ** elasticity


def boat_knobs(spec: dict) -> dict:
    """``BoatConfig`` keyword arguments of a workload spec."""
    return dict(
        sample_size=spec["sample_size"],
        bootstrap_repetitions=spec["bootstraps"],
    )

