"""Observability: phase-scoped tracing and metrics for BOAT runs.

See :mod:`repro.observability.tracer` for the span model and
``docs/OBSERVABILITY.md`` for the span taxonomy, the JSONL schema, and
the scan-count invariants the test suite enforces on top of it.
"""

from .export import (
    format_trace,
    read_jsonl,
    trace_lines,
    write_jsonl,
)
from .histogram import LatencyHistogram
from .tracer import (
    COUNTER_FIELDS,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    TraceReport,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "COUNTER_FIELDS",
    "LatencyHistogram",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "NullTracer",
    "Span",
    "TraceReport",
    "Tracer",
    "ensure_tracer",
    "format_trace",
    "read_jsonl",
    "trace_lines",
    "write_jsonl",
]
