"""Trace exporters: JSONL for machines, an indented tree for humans.

JSONL schema (one object per span, preorder, stable key order):

``{"v": 1, "id": <int>, "parent": <int | null>, "name": <str>,``
``"status": "ok" | "event" | "error:<Type>", "wall_seconds": <float>,``
``"full_scans": <int>, "tuples_read": <int>, "tuples_written": <int>,``
``"bytes_read": <int>, "bytes_written": <int>, "spill_files": <int>,``
``"attributes": {<str>: <json>}}``

Span ids are preorder positions, so two traces of the same run are
line-by-line comparable once ``wall_seconds`` is masked.  The format
round-trips: :func:`read_jsonl` rebuilds the exact
:class:`~repro.observability.tracer.TraceReport` structure.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator

from .tracer import (
    COUNTER_FIELDS,
    TRACE_SCHEMA_VERSION,
    Span,
    TraceReport,
    is_timing_attribute,
)


def trace_lines(report: TraceReport) -> Iterator[dict]:
    """Flatten a report into JSONL-ready dicts (preorder, ids assigned)."""
    next_id = 0

    def emit(span: Span, parent: int | None) -> Iterator[dict]:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        line: dict = {
            "v": TRACE_SCHEMA_VERSION,
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "status": span.status,
            "wall_seconds": round(span.wall_seconds, 6),
        }
        line.update(span.counters)
        line["attributes"] = dict(sorted(span.attributes.items()))
        yield line
        for child in span.children:
            yield from emit(child, span_id)

    for root in report.roots:
        yield from emit(root, None)


def write_jsonl(report: TraceReport, destination: str | os.PathLike | IO[str]) -> None:
    """Write a trace as JSON lines to a path or an open text stream."""
    if hasattr(destination, "write"):
        for line in trace_lines(report):
            destination.write(json.dumps(line, sort_keys=False) + "\n")
        return
    with open(os.fspath(destination), "w", encoding="utf-8") as fh:
        write_jsonl(report, fh)


def read_jsonl(source: str | os.PathLike | IO[str]) -> TraceReport:
    """Rebuild a :class:`TraceReport` from :func:`write_jsonl` output."""
    if not hasattr(source, "read"):
        with open(os.fspath(source), encoding="utf-8") as fh:
            return read_jsonl(fh)
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    for raw in source:
        raw = raw.strip()
        if not raw:
            continue
        line = json.loads(raw)
        span = Span(line["name"], tracer=None)
        span.status = line["status"]
        span.wall_seconds = line["wall_seconds"]
        for field in COUNTER_FIELDS:
            setattr(span, field, line[field])
        span.attributes = dict(line["attributes"])
        spans[line["id"]] = span
        parent = line["parent"]
        if parent is None:
            roots.append(span)
        else:
            spans[parent].children.append(span)
    return TraceReport(roots)


def format_trace(report: TraceReport, include_timing: bool = True) -> str:
    """Human-readable indented tree, one line per span."""
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        parts = [f"{'  ' * depth}{span.name}"]
        if span.status not in ("ok", "event"):
            parts.append(f"[{span.status}]")
        if include_timing:
            parts.append(f"{span.wall_seconds:.3f}s")
        if span.full_scans:
            parts.append(f"scans={span.full_scans}")
        if span.tuples_read or span.bytes_read:
            parts.append(f"read={span.tuples_read}t/{span.bytes_read}B")
        if span.tuples_written or span.bytes_written:
            parts.append(f"written={span.tuples_written}t/{span.bytes_written}B")
        if span.spill_files:
            parts.append(f"spills={span.spill_files}")
        attrs = " ".join(
            f"{k}={v}"
            for k, v in sorted(span.attributes.items())
            if include_timing or not is_timing_attribute(k)
        )
        if attrs:
            parts.append(attrs)
        lines.append(" ".join(parts))
        for child in span.children:
            walk(child, depth + 1)

    for root in report.roots:
        walk(root, 0)
    return "\n".join(lines)
