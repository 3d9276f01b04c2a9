"""Crash safety for out-of-core builds: retrying scans, checkpoints, resume.

BOAT's premise is that the training database does not fit in memory, so a
build is two long scans over disk-resident data — exactly the regime where
a transient device error or a killed process near the end of a scan is
most expensive.  This package makes the two-scan build fault-tolerant:

* :class:`RetryingTable` absorbs transient ``IOError``s mid-scan by
  re-reading from the last good offset with bounded exponential backoff
  (:class:`RetryPolicy`), surfacing retry counts as tracer attributes.
* :class:`CheckpointManager` persists the build's recoverable state to a
  checkpoint directory: the skeleton with its coarse criteria after the
  sampling phase, then completed cleanup *units* — the mergeable
  statistics of one row interval, every N batches of a flat scan or one
  per shard unit of a sharded build.
* :func:`resume_build` restarts a killed build from its checkpoint:
  the build's own driver with the skeleton read from disk, merging the
  completed units and scanning only the rows none of them covers
  (:func:`uncovered_intervals`), for a tree byte-identical to an
  uninterrupted build's.

See ``docs/RECOVERY.md`` for the checkpoint format and resume semantics.
"""

from .checkpoint import (
    CheckpointManager,
    CheckpointState,
    build_digest,
    load_checkpoint,
    load_resumable,
    load_unit_results,
    restore_skeleton,
    serialize_skeleton,
    uncovered_intervals,
)
from ..core.boat import resume_build
from .retry import RetryingTable, RetryPolicy, wrap_retry

__all__ = [
    "CheckpointManager",
    "CheckpointState",
    "RetryPolicy",
    "RetryingTable",
    "build_digest",
    "load_checkpoint",
    "load_resumable",
    "load_unit_results",
    "restore_skeleton",
    "resume_build",
    "serialize_skeleton",
    "uncovered_intervals",
    "wrap_retry",
]
