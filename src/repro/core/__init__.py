"""BOAT core: sampling phase, cleanup scan, finalization, incremental maintenance."""

from .boat import BoatReport, BoatResult, boat_build
from .bootstrap import (
    SamplingReport,
    SamplingResult,
    build_bootstrap_trees,
    sampling_phase,
)
from .bounds import admissible_bucket_mask, bucket_lower_bound, bucket_lower_bounds
from .cleanup import cleanup_scan, shared_cleanup_scan
from .coarse import CoarseCategorical, CoarseCriterion, CoarseNumeric
from .discretize import (
    bucket_index,
    build_discretization,
    interval_bucket_range,
    interval_forced_edges,
)
from .finalize import (
    FinalizeReport,
    Finalizer,
    config_at_depth,
    finalize_tree,
    reference_rebuild,
)
from .crossval import CrossValidationResult, boat_cross_validate
from .incremental import IncrementalBoat, UpdateReport
from .sql_pushdown import routing_expression, sql_pushdown_scan
from .state import (
    BoatNode,
    EffectiveStats,
    NodeDelta,
    apply_batch_delta,
    collect_family,
    compute_batch_delta,
    effective_stats,
    multiset_remove,
    stream_batch,
)

__all__ = [
    "BoatNode",
    "BoatReport",
    "BoatResult",
    "CoarseCategorical",
    "CoarseCriterion",
    "CoarseNumeric",
    "CrossValidationResult",
    "EffectiveStats",
    "FinalizeReport",
    "Finalizer",
    "IncrementalBoat",
    "UpdateReport",
    "SamplingReport",
    "SamplingResult",
    "NodeDelta",
    "admissible_bucket_mask",
    "apply_batch_delta",
    "boat_build",
    "boat_cross_validate",
    "bucket_index",
    "bucket_lower_bound",
    "bucket_lower_bounds",
    "build_bootstrap_trees",
    "build_discretization",
    "cleanup_scan",
    "collect_family",
    "compute_batch_delta",
    "config_at_depth",
    "effective_stats",
    "finalize_tree",
    "interval_bucket_range",
    "interval_forced_edges",
    "multiset_remove",
    "reference_rebuild",
    "routing_expression",
    "sampling_phase",
    "shared_cleanup_scan",
    "sql_pushdown_scan",
    "stream_batch",
]
