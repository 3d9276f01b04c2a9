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
  sampling phase, then — every N cleanup batches — the scan offset, every
  node's statistics, and a durable spill-file manifest.
* :func:`resume_build` restarts a killed build from its checkpoint,
  re-reading only the tail of the cleanup scan past the last checkpoint,
  and produces a tree byte-identical to an uninterrupted build.

See ``docs/RECOVERY.md`` for the checkpoint format and resume semantics.
"""

from .checkpoint import (
    CheckpointManager,
    CheckpointState,
    build_digest,
    load_checkpoint,
    load_resumable,
    load_unit_results,
    restore_cleanup_state,
    restore_skeleton,
    serialize_cleanup_state,
    serialize_skeleton,
)
from .resume import resume_build
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
    "restore_cleanup_state",
    "restore_skeleton",
    "resume_build",
    "serialize_cleanup_state",
    "serialize_skeleton",
    "wrap_retry",
]
