"""Configuration dataclasses shared across the library.

Two configuration objects flow through the system:

* :class:`SplitConfig` — stopping rules and search limits that *define the
  target tree*.  Every algorithm (reference builder, BOAT, RainForest) must
  receive the same :class:`SplitConfig` to produce the same tree; it is part
  of the tree's identity.
* :class:`BoatConfig` — knobs of the BOAT algorithm itself (sample size,
  bootstrap repetitions, bucket budget...).  These affect only *how fast*
  BOAT converges, never which tree it outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

DEFAULT_BATCH_ROWS = 65536

#: Valid values for BoatConfig.parallel_backend (see :mod:`repro.parallel`).
PARALLEL_BACKENDS = ("auto", "process", "thread", "serial")

#: Valid values for BoatConfig.kernel_backend (see :mod:`repro.kernels`).
KERNEL_BACKENDS = ("numpy", "python")


@dataclass(frozen=True)
class SplitConfig:
    """Stopping rules and search limits that define the target tree.

    Attributes:
        min_samples_split: a node whose family is smaller than this becomes
            a leaf.  Must be at least 2.
        min_samples_leaf: a candidate split is only admissible if both
            children receive at least this many tuples.
        max_depth: nodes at this depth become leaves (root has depth 0).
            ``None`` means unbounded.
        max_categorical_exhaustive: categorical domains up to this size are
            searched exhaustively over all subsets; larger domains use the
            deterministic sorted-by-class-probability search (exact for
            two-class impurity problems, a documented heuristic otherwise).
        split_sample_rows: when set, impurity-based split *search* at a
            node with more than this many family rows evaluates candidates
            on a deterministic stride subsample of this size instead of
            the full family (Kumar & Edakunni's sampling-based split
            finding).  The chosen split is still applied to the full
            family.  Unlike every other knob on this dataclass, sampling
            changes which tree is produced — which is why it lives here:
            it is part of the tree's identity, and every consumer
            (reference builder, BOAT finalization, rebuilds) must agree on
            it to agree on the tree.  The subsample is a pure function of
            the family (no RNG), so determinism and the byte-identity
            guarantees are preserved *for a given config*.  Ignored by
            QUEST, whose split points come from sufficient statistics
            rather than candidate enumeration.  ``None`` (default)
            searches exactly.
    """

    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_depth: int | None = None
    max_categorical_exhaustive: int = 12
    split_sample_rows: int | None = None

    def __post_init__(self) -> None:
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.max_categorical_exhaustive < 1:
            raise ValueError("max_categorical_exhaustive must be >= 1")
        if self.split_sample_rows is not None and self.split_sample_rows < 2:
            raise ValueError("split_sample_rows must be >= 2 or None")


@dataclass(frozen=True)
class BoatConfig:
    """Knobs of the BOAT algorithm (performance, never output).

    Attributes:
        sample_size: size of the in-memory sample D' drawn in the sampling
            phase (the paper used 200 000).
        bootstrap_repetitions: number b of bootstrap trees (paper: 20).
        bootstrap_subsample: size of each bootstrap sample drawn with
            replacement from D' (paper: 50 000).  ``None`` means ``|D'|``.
        interval_widening: fraction of the bootstrap split-point range by
            which the confidence interval is widened on each side.  Wider
            intervals hold more tuples in memory but fail less often.
        interval_impurity_slack: additionally widen the interval to cover
            every sample candidate whose impurity is within
            ``slack * (node impurity - best impurity)`` of the sample
            best.  Flat impurity plateaus (the paper's instability
            scenario, pronounced for Function 7's linear class boundary)
            otherwise sit right at the corner bound's resolution limit and
            cause false-alarm rebuilds.
        inmemory_threshold: families at most this large are finished by the
            in-memory reference builder instead of further out-of-core
            processing (the paper's 60 MB switch).
        bucket_budget: target number of discretization buckets per numeric
            attribute per node for the Lemma 3.1 failure check.
        spill_threshold_rows: per-node stores (held tuples, frontier
            families) buffer at most this many rows in RAM and spill to
            temporary files beyond it — the paper's "writes temporary
            files to be truly scalable".
        seed: seed for the sampling phase RNG.  Changing it changes speed
            (which subtrees need rebuilding), never the output tree.
        batch_rows: scan batch granularity.
        n_workers: worker count for the parallel phases: the cleanup
            scan's batch routing, and the per-repetition bootstrap of
            QUEST and the ``python`` backend.  Finalization always runs
            on the calling thread.  ``1`` runs everything serially;
            ``0`` uses one worker per CPU.  Like
            every BOAT knob this affects speed only — the output tree is
            bit-identical at any worker count.
        parallel_backend: ``"auto"`` (process pool when ``n_workers`` > 1),
            ``"process"``, ``"thread"``, or ``"serial"``.  Pools that fail
            to start degrade to serial execution; see
            :class:`repro.parallel.WorkerPool`.
        kernel_backend: ``"numpy"`` (vectorized columnar kernels, the
            fast path) or ``"python"`` (the per-row reference
            implementation; see :mod:`repro.kernels`).  Both backends
            produce bit-identical trees — the kernel-oracle differential
            suite enforces it — so this knob only trades speed for
            per-row auditability.
        trace: record a phase-scoped trace of the build.  When no tracer
            is passed to :func:`repro.core.boat_build` explicitly, this
            makes the driver create one and return its
            :class:`~repro.observability.TraceReport` on the build report.
            Off by default: the disabled path is a no-op object with no
            measurable cost on the scan path.
        checkpoint_dir: when set, the build becomes crash-safe: the
            skeleton is persisted after the sampling phase, then every
            ``checkpoint_every_batches`` cleanup batches one unit — the
            statistics and held/family rows of the rows just scanned —
            and a killed build can be resumed with
            :func:`repro.recovery.resume_build` (CLI ``--resume``),
            producing a byte-identical tree.  Like every other knob this
            never changes the output tree.
        checkpoint_every_batches: cleanup-scan batches per checkpoint
            unit of a flat build.  Smaller values shrink the re-read tail
            after a crash at the cost of more checkpoint writes;
            checkpointing holds at most one unit's rows in memory.
            Sharded builds ignore it: they checkpoint one unit per
            dispatched shard work unit.
        scan_retries: absorb up to this many transient ``IOError``s per
            scan by re-reading from the last good offset with bounded
            exponential backoff (0 disables retrying; failures then
            surface immediately as :class:`~repro.exceptions.StorageError`).
        sql_pushdown: when the training table is a
            :class:`~repro.storage.sql.SqlTable`, run the cleanup scan's
            statistics as grouped aggregation queries inside the database
            and export only held/family rows (see docs/SQL.md).  A
            placement/speed knob, never the tree: the output is
            byte-identical with it on or off, and it is ignored for
            non-SQL tables.  It cannot be combined with
            ``checkpoint_dir``: checkpoints need row-granular scan
            progress, which the aggregation pushdown cannot report.
        scan_retry_base_delay_s: backoff before the first retry; each
            subsequent retry doubles it, capped at
            ``scan_retry_max_delay_s``.
        scan_retry_max_delay_s: upper bound on a single backoff sleep.
    """

    sample_size: int = 20000
    bootstrap_repetitions: int = 20
    bootstrap_subsample: int | None = None
    interval_widening: float = 0.05
    interval_impurity_slack: float = 0.05
    inmemory_threshold: int = 0
    bucket_budget: int = 64
    spill_threshold_rows: int = 1 << 20
    seed: int = 42
    batch_rows: int = DEFAULT_BATCH_ROWS
    n_workers: int = 1
    parallel_backend: str = "auto"
    kernel_backend: str = "numpy"
    trace: bool = False
    checkpoint_dir: str | None = None
    checkpoint_every_batches: int = 16
    scan_retries: int = 0
    scan_retry_base_delay_s: float = 0.05
    scan_retry_max_delay_s: float = 2.0
    sql_pushdown: bool = False

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.bootstrap_repetitions < 2:
            raise ValueError("bootstrap_repetitions must be >= 2")
        if self.bootstrap_subsample is not None and self.bootstrap_subsample < 1:
            raise ValueError("bootstrap_subsample must be >= 1 or None")
        if self.interval_widening < 0:
            raise ValueError("interval_widening must be >= 0")
        if self.interval_impurity_slack < 0:
            raise ValueError("interval_impurity_slack must be >= 0")
        if self.inmemory_threshold < 0:
            raise ValueError("inmemory_threshold must be >= 0")
        if self.bucket_budget < 2:
            raise ValueError("bucket_budget must be >= 2")
        if self.spill_threshold_rows < 1:
            raise ValueError("spill_threshold_rows must be >= 1")
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = one per CPU)")
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise ValueError(
                f"parallel_backend must be one of {PARALLEL_BACKENDS}, "
                f"got {self.parallel_backend!r}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.sql_pushdown and self.checkpoint_dir is not None:
            raise ValueError(
                "sql_pushdown cannot be combined with checkpoint_dir: "
                "checkpoints need row-granular scan progress"
            )
        if self.checkpoint_every_batches < 1:
            raise ValueError("checkpoint_every_batches must be >= 1")
        if self.scan_retries < 0:
            raise ValueError("scan_retries must be >= 0")
        if self.scan_retry_base_delay_s < 0:
            raise ValueError("scan_retry_base_delay_s must be >= 0")
        if self.scan_retry_max_delay_s < self.scan_retry_base_delay_s:
            raise ValueError(
                "scan_retry_max_delay_s must be >= scan_retry_base_delay_s"
            )


def config_at_depth(config: SplitConfig, depth: int) -> SplitConfig:
    """Stopping rules for a subtree rooted ``depth`` levels down.

    Only ``max_depth`` is depth-relative; a subtree built separately (a
    frontier completion or a rebuild) must see its remaining budget.
    """
    if config.max_depth is None or depth == 0:
        return config
    return dataclasses.replace(config, max_depth=max(config.max_depth - depth, 0))


@dataclass(frozen=True)
class RainForestConfig:
    """Knobs of the RainForest baseline algorithms.

    Attributes:
        avc_buffer_entries: main-memory budget, counted in AVC entries
            (distinct (attribute value, class) pairs held at once).  The
            paper used 3 M entries for RF-Hybrid and 1.8 M for RF-Vertical.
        inmemory_threshold: same in-memory switch as BOAT's, for a fair
            comparison.
        batch_rows: scan batch granularity.
        kernel_backend: same switch as BOAT's — ``"numpy"`` or
            ``"python"`` (see :mod:`repro.kernels`); the AVC-set
            constructors route through the selected backend.
    """

    avc_buffer_entries: int = 3_000_000
    inmemory_threshold: int = 0
    batch_rows: int = DEFAULT_BATCH_ROWS
    kernel_backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.avc_buffer_entries < 1:
            raise ValueError("avc_buffer_entries must be >= 1")
        if self.inmemory_threshold < 0:
            raise ValueError("inmemory_threshold must be >= 0")
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
