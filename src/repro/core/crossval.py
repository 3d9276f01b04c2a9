"""k-fold cross-validation in three database scans (§2's aside).

The paper notes that although MDL pruning is preferred at scale,
cross-validation for large training sets also benefits from BOAT: the
k per-fold trees can share scans instead of paying k separate
constructions.  This module realizes that:

* scan 1 draws one sample; each fold's sampling phase uses the sample
  minus its own fold's records,
* scan 2 is a shared cleanup scan — every batch is streamed through all
  k skeletons, each skeleton skipping its own fold,
* scan 3 evaluates every record against its own fold's finished tree.

Fold assignment is by global row position modulo k — deterministic
across scans, so training and evaluation partitions agree exactly.

Every fold tree is exactly the reference tree of its training partition
(the BOAT guarantee applies per fold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import RecoveryError, SplitSelectionError
from ..kernels import get_kernels
from ..observability import NULL_TRACER
from ..parallel import WorkerPool
from ..recovery.retry import wrap_retry
from ..splits.methods import ImpuritySplitSelection
from ..storage import CLASS_COLUMN, Table
from ..tree import DecisionTree, build_reference_tree
from .boat import BuildHarness
from .bootstrap import sampling_phase
from .cleanup import shared_cleanup_scan
from .finalize import finalize_tree
from .state import apply_batch_delta
from .terminals import compile_skeleton


@dataclass
class CrossValidationResult:
    """k fold trees plus their held-out error estimates.

    Attributes:
        trees: fold trees; ``trees[f]`` was trained on every record whose
            global row position is not congruent to f modulo k.
        fold_errors: held-out misclassification rate per fold.
        scans: database scans consumed (3 when all folds take the BOAT
            path; fewer only for degenerate inputs).
        wall_seconds: total wall-clock time.
    """

    trees: list[DecisionTree]
    fold_errors: list[float]
    scans: int
    wall_seconds: float

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.fold_errors)) if self.fold_errors else 0.0


def boat_cross_validate(
    table: Table,
    k: int,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
) -> CrossValidationResult:
    """k-fold cross-validation sharing scans across all folds.

    ``boat_config.scan_retries`` absorbs transient errors in all three
    scans, as in ``boat_build``, and an error that outlives the retries
    surfaces as a :class:`~repro.exceptions.StorageError` after every
    fold skeleton's stores (and spill files) are released.  The shared
    cleanup scan routes batches on ``boat_config.n_workers`` threads.
    ``checkpoint_dir`` is refused with a
    :class:`~repro.exceptions.RecoveryError` before any scan, since
    cross-validation cannot be checkpointed or resumed.
    """
    if k < 2:
        raise SplitSelectionError("cross-validation needs k >= 2")
    if len(table) < k:
        raise SplitSelectionError("table smaller than the number of folds")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    if boat_config.checkpoint_dir:
        raise RecoveryError(
            "boat_cross_validate cannot checkpoint or resume: drop "
            "BoatConfig.checkpoint_dir"
        )
    scan_table = wrap_retry(table, boat_config, NULL_TRACER)
    start = time.perf_counter()
    rng = np.random.default_rng(boat_config.seed)
    schema = table.schema
    n = len(table)
    run = BuildHarness(None, None, NULL_TRACER, boat_config, "cross-validation")

    with run.guard():
        # -- scan 1: one shared sample, with global positions retained ---
        size = min(boat_config.sample_size, n)
        chosen = np.sort(rng.choice(n, size=size, replace=False))
        sample = schema.empty(size)
        sample_positions = chosen
        filled = 0
        offset = 0
        for batch in scan_table.scan(boat_config.batch_rows):
            lo = np.searchsorted(chosen, offset, side="left")
            hi = np.searchsorted(chosen, offset + len(batch), side="left")
            if hi > lo:
                sample[filled : filled + hi - lo] = batch[chosen[lo:hi] - offset]
                filled += hi - lo
            offset += len(batch)
        scans = 1

        small = size >= n  # whole table in memory: fall back per fold
        sample_folds = sample_positions % k
        skeletons = []
        if not small:
            for fold in range(k):
                training_sample = sample[sample_folds != fold]
                result = sampling_phase(
                    training_sample,
                    schema,
                    method,
                    split_config,
                    boat_config,
                    n - n // k,
                    rng,
                    spill_dir,
                    table.io_stats,
                )
                skeletons.append(run.hold(result.root))

            # -- scan 2: shared cleanup scan -----------------------------
            kernels = get_kernels(boat_config.kernel_backend)

            def fold_sink(fold: int, skeleton):
                plan = compile_skeleton(skeleton, schema)

                def sink(batch: np.ndarray, offset: int):
                    folds = (offset + np.arange(len(batch))) % k
                    deltas = plan.deltas(batch[folds != fold], kernels)
                    return lambda: apply_batch_delta(deltas)

                return sink

            with WorkerPool(boat_config.n_workers, "thread") as pool:
                shared_cleanup_scan(
                    scan_table,
                    [fold_sink(fold, s) for fold, s in enumerate(skeletons)],
                    boat_config.batch_rows,
                    pool,
                    labels=[f"fold-{fold}" for fold in range(k)],
                )
            scans += 1

            trees = []
            for skeleton in skeletons:
                tree, _ = finalize_tree(skeleton, schema, method, split_config)
                trees.append(tree)
                skeleton.release()
        else:
            family = sample  # == the full table
            trees = []
            for fold in range(k):
                trees.append(
                    build_reference_tree(
                        family[sample_folds != fold], schema, method, split_config
                    )
                )

        # -- scan 3: held-out evaluation, all folds in one pass -----------
        errors = np.zeros(k, dtype=np.int64)
        totals = np.zeros(k, dtype=np.int64)
        offset = 0
        for batch in scan_table.scan(boat_config.batch_rows):
            folds = (offset + np.arange(len(batch))) % k
            for fold in range(k):
                mask = folds == fold
                if not mask.any():
                    continue
                rows = batch[mask]
                predicted = trees[fold].predict(rows)
                errors[fold] += int(np.sum(predicted != rows[CLASS_COLUMN]))
                totals[fold] += len(rows)
            offset += len(batch)
        scans += 1

    fold_errors = [
        float(errors[f]) / totals[f] if totals[f] else 0.0 for f in range(k)
    ]
    return CrossValidationResult(
        trees=trees,
        fold_errors=fold_errors,
        scans=scans,
        wall_seconds=time.perf_counter() - start,
    )
