"""Phase-scoped tracing: nestable spans with I/O-counter attribution.

BOAT's headline claim — a constant number of scans over a database that
does not fit in memory — is a claim about *phases*: one scan to draw the
sample, one cleanup scan, and in-memory work everywhere else.  The raw
:class:`~repro.storage.IOStats` counters prove the total; a
:class:`Tracer` proves the attribution.  Each phase runs inside a
:class:`Span` that snapshots the experiment's I/O counters at its
boundaries (via :meth:`IOStats.delta_since`) and records wall time,
tuples/bytes read and written, full-scan and spill-file counts, plus
free-form attributes (node counts, rebuild counts, ...).

Design constraints, in order:

* **Zero-cost when off.**  A disabled tracer is the :data:`NULL_TRACER`
  singleton whose :meth:`~NullTracer.span` returns one shared no-op
  object — no allocation, no clock read, no snapshot on the hot scan
  path.
* **Deterministic modulo timestamps.**  Span names, nesting, counters
  and attributes are pure functions of the work performed, so tests can
  golden-compare every structural field
  (:meth:`Span.to_dict(include_timing=False) <Span.to_dict>`); only
  wall-clock fields vary between runs: ``wall_seconds`` and the layer
  timers, attributes named ``*_s``.
* **Worker merge mirrors** :meth:`IOStats.merge`.  Parallel phases give
  each worker a detached span (:meth:`Tracer.worker_span`), accumulate
  private counters into it, and attach the spans under the parent phase
  in deterministic order.  Merging is plain counter addition, hence
  associative.

The tracer's span stack is owned by the driving thread; worker threads
never touch it (they only fill detached worker spans), matching the
parallel layer's "workers compute, the parent mutates" discipline.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

from ..storage.io_stats import IOStats

#: Counter fields mirrored from :class:`IOStats`, in export order.
COUNTER_FIELDS = (
    "full_scans",
    "tuples_read",
    "tuples_written",
    "bytes_read",
    "bytes_written",
    "spill_files",
)

#: Schema version stamped on every exported span line.
TRACE_SCHEMA_VERSION = 1


def is_timing_attribute(name: str) -> bool:
    """Attributes named ``*_s`` hold wall-clock seconds (layer timers),
    which vary between otherwise identical runs."""
    return name.endswith("_s")


class Span:
    """One traced phase: a named interval with counters, attributes, children.

    Use as a context manager (entered via :meth:`Tracer.span`); on exit the
    wall time and the I/O delta accumulated inside the span are recorded.
    An exception propagating out still closes the span — its status becomes
    ``"error:<ExceptionType>"`` and the exception continues unwound, so a
    trace of a failed run shows exactly which phase died.
    """

    __slots__ = (
        "name",
        "status",
        "wall_seconds",
        "full_scans",
        "tuples_read",
        "tuples_written",
        "bytes_read",
        "bytes_written",
        "spill_files",
        "attributes",
        "children",
        "_tracer",
        "_started",
        "_io_before",
    )

    def __init__(self, name: str, tracer: "Tracer | None" = None):
        self.name = name
        self.status = "open"
        self.wall_seconds = 0.0
        self.full_scans = 0
        self.tuples_read = 0
        self.tuples_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.spill_files = 0
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self._tracer = tracer
        self._started: float | None = None
        self._io_before: IOStats | None = None

    # -- context management --------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is None:
            raise RuntimeError(f"span {self.name!r} is detached; use Tracer.span")
        tracer._push(self)
        if tracer._io is not None:
            self._io_before = tracer._io.snapshot()
        self._started = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.wall_seconds += tracer._clock() - self._started
        if tracer._io is not None and self._io_before is not None:
            self.add_io(tracer._io.delta_since(self._io_before))
            self._io_before = None
        self.status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        tracer._pop(self)
        return False  # never swallow the exception

    # -- recording -----------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach structured attributes (node counts, config echoes, ...)."""
        self.attributes.update(attributes)
        return self

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a numeric attribute (creates it at 0)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def add_io(self, stats: IOStats) -> None:
        """Add an I/O delta's counters into this span."""
        self.full_scans += stats.full_scans
        self.tuples_read += stats.tuples_read
        self.tuples_written += stats.tuples_written
        self.bytes_read += stats.bytes_read
        self.bytes_written += stats.bytes_written
        self.spill_files += stats.spill_files

    def merge(self, other: "Span") -> "Span":
        """Fold another span's counters into this one (returns ``self``).

        The worker-span analogue of :meth:`IOStats.merge`: counters and
        wall time add, numeric attributes add, non-numeric attributes are
        first-writer-wins.  Addition makes the operation associative, so
        any merge tree over the same spans yields the same totals.
        """
        self.wall_seconds += other.wall_seconds
        self.full_scans += other.full_scans
        self.tuples_read += other.tuples_read
        self.tuples_written += other.tuples_written
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.spill_files += other.spill_files
        for key, value in other.attributes.items():
            mine = self.attributes.get(key)
            if isinstance(value, (int, float)) and isinstance(mine, (int, float)):
                self.attributes[key] = mine + value
            elif key not in self.attributes:
                self.attributes[key] = value
        return self

    # -- export ---------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in COUNTER_FIELDS}

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree, preorder."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, include_timing: bool = True) -> dict:
        """Nested dict form.  ``include_timing=False`` drops every field
        that varies between otherwise identical runs (wall time and timing
        attributes, :func:`is_timing_attribute`), leaving only the
        golden-comparable structure."""
        out: dict[str, Any] = {"name": self.name, "status": self.status}
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
        out.update(self.counters)
        out["attributes"] = {
            key: value
            for key, value in sorted(self.attributes.items())
            if include_timing or not is_timing_attribute(key)
        }
        out["children"] = [c.to_dict(include_timing) for c in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, status={self.status!r}, "
            f"scans={self.full_scans}, children={len(self.children)})"
        )


class TraceReport:
    """A finished trace: the forest of root spans one tracer recorded."""

    def __init__(self, roots: list[Span]):
        self.roots = roots

    def find(self, name: str) -> Span | None:
        """First span named ``name`` across all roots, preorder."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def total(self, field: str) -> int:
        """Sum a counter over root spans (children are already included)."""
        return sum(getattr(root, field) for root in self.roots)

    def to_dicts(self, include_timing: bool = True) -> list[dict]:
        return [root.to_dict(include_timing) for root in self.roots]

    def phase_summary(self) -> dict:
        """Compact per-phase breakdown for benchmark rows.

        ``{"full_scans": total, "phases": {name: {"seconds", "full_scans",
        "tuples_read", "tuples_written", "spill_files"}}}`` over the
        top-level phases (the children of the first root span, or the
        roots themselves when they have no children).
        """
        phases: list[Span] = []
        for root in self.roots:
            phases.extend(root.children or [root])
        summary: dict[str, dict] = {}
        for span in phases:
            entry = summary.setdefault(
                span.name,
                {
                    "seconds": 0.0,
                    "full_scans": 0,
                    "tuples_read": 0,
                    "tuples_written": 0,
                    "spill_files": 0,
                },
            )
            entry["seconds"] = round(entry["seconds"] + span.wall_seconds, 3)
            entry["full_scans"] += span.full_scans
            entry["tuples_read"] += span.tuples_read
            entry["tuples_written"] += span.tuples_written
            entry["spill_files"] += span.spill_files
        return {"full_scans": self.total("full_scans"), "phases": summary}


class Tracer:
    """Records a tree of phase spans against one experiment's I/O counters.

    Args:
        io_stats: the experiment's shared :class:`IOStats`; span boundaries
            snapshot it to attribute I/O per phase.  ``None`` records wall
            time and attributes only.
        clock: monotonic clock, injectable for deterministic tests.

    The span stack belongs to the thread driving the build.  Parallel
    phases use :meth:`worker_span` + :meth:`adopt` instead of nesting.
    """

    enabled = True

    def __init__(
        self,
        io_stats: IOStats | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._io = io_stats
        self._clock = clock
        self._stack: list[Span] = []
        self.roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span to be entered with ``with``; nests under the current one."""
        span = Span(name, tracer=self)
        if attributes:
            span.set(**attributes)
        return span

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def worker_span(self, name: str, **attributes: Any) -> Span:
        """A detached span for worker-side accounting (no clock, no stack).

        Fill it with :meth:`Span.add_io` / :meth:`Span.bump` / :meth:`Span.merge`
        as worker results arrive, then :meth:`adopt` it under the running
        phase span in deterministic order.
        """
        span = Span(name, tracer=None)
        if attributes:
            span.set(**attributes)
        return span

    def adopt(self, span: Span, parent: Span | None = None) -> None:
        """Adopt a detached (worker) span as a child of ``parent``.

        ``parent`` defaults to the innermost open span; with no open span
        the span becomes a root.  Adopting closes the span.
        """
        if span.status == "open":
            span.status = "ok"
        parent = parent if parent is not None else self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point event as a zero-duration child of the current span."""
        span = Span(name, tracer=None)
        span.status = "event"
        if attributes:
            span.set(**attributes)
        self.adopt(span)

    def report(self) -> TraceReport:
        """The trace recorded so far (open spans keep accumulating)."""
        return TraceReport(list(self.roots))

    # -- stack plumbing (Span.__enter__/__exit__ only) -----------------------

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(open: {[s.name for s in self._stack]})"
            )
        self._stack.pop()

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"


class _NullSpan:
    """The shared do-nothing span; every recording method is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def bump(self, key: str, amount: int = 1) -> None:
        pass

    def add_io(self, stats: IOStats) -> None:
        pass

    def merge(self, other: "_NullSpan") -> "_NullSpan":
        return self


class NullTracer:
    """The disabled tracer: one shared instance, one shared no-op span.

    Every method returns the same singleton objects, so tracing calls on
    the hot scan path cost one attribute lookup and one call — no
    allocation, no branching at call sites.
    """

    enabled = False

    _span = _NullSpan()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._span

    def current(self) -> None:
        return None

    def worker_span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._span

    def adopt(self, span: object, parent: object | None = None) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def report(self) -> TraceReport:
        return TraceReport([])

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer.  ``tracer or NULL_TRACER`` is the
#: idiom every traced function uses to normalize its optional argument.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize an optional tracer argument to a usable object."""
    return tracer if tracer is not None else NULL_TRACER
