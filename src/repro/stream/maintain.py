"""The maintenance loop: one thread owning the maintainer.

A single ``repro-stream-maintain`` thread pops runs of same-operation
micro-batches off the :class:`~repro.stream.IngestQueue`, concatenates
them into one coalesced chunk, applies it through the maintainer
(:class:`~repro.core.IncrementalBoat` or
:class:`~repro.stream.RebuildMaintainer`), and resolves every ticket in
the run with the update report and the model version the update
published.  Updates are strictly serialized — the maintainer is never
touched from two threads — while publication happens inside the
maintainer's listener chain, so readers swap to the new exact tree
atomically through the :class:`~repro.serve.ModelRegistry`.

Failure handling has two planes, mirroring the serving batcher:

* **clean apply failure** — the maintainer raised before mutating any
  store (e.g. validation, a rebuild error at the start of an update).
  Every ticket in the run fails with one :class:`StreamError`; the
  registry keeps serving the last good version and the loop moves on to
  the next run.
* **mid-apply fault** — the maintainer raised *after* partially
  mutating its stores (detected by the ``stored_rows() == n_rows``
  invariant).  The maintained state is no longer trustworthy, so the
  loop enters a fail-stop **degraded** mode: every subsequent update is
  refused with a 503 :class:`StreamError` naming the original fault,
  while predictions keep flowing from the last published tree.

Tracing mirrors the batcher's worker-span discipline: one detached
``stream`` span owns a ``maintain`` child per coalesced run (operation,
chunks, rows, rebuild count, published version), attached to the owning
tracer when the loop closes.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..exceptions import ReproError, StreamError
from ..observability import NULL_TRACER, NullTracer, Tracer
from .ingest import IngestQueue, UpdateTicket


class MaintenanceLoop:
    """Drives a maintainer from an ingest queue on a dedicated thread."""

    def __init__(
        self,
        maintainer,
        queue: IngestQueue,
        registry=None,
        coalesce_rows: int = 65536,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.maintainer = maintainer
        self.queue = queue
        #: Registry publishing the maintainer's trees (version reporting
        #: only — the publish itself rides the maintainer's listeners).
        self.registry = registry
        self.coalesce_rows = coalesce_rows
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._thread: threading.Thread | None = None
        self._stream_span = None
        self._state_lock = threading.Lock()
        self._in_flight: list[UpdateTicket] = []
        self._degraded: str | None = None
        # counters (maintenance-thread writes, stats() snapshots)
        self._applied_updates = 0
        self._applied_rows = 0
        self._patch_updates = 0
        self._rebuild_updates = 0
        self._failed_updates = 0
        self._coalesced_runs = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MaintenanceLoop":
        if self._thread is not None:
            raise StreamError("maintenance loop is already started")
        if self.tracer.enabled:
            self._stream_span = self.tracer.worker_span(
                "stream", coalesce_rows=self.coalesce_rows
            )
        self._thread = threading.Thread(
            target=self._run, name="repro-stream-maintain", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Close the queue, drain every pending run, stop the thread."""
        self.queue.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._stream_span is not None:
            self._stream_span.set(
                applied_updates=self._applied_updates,
                applied_rows=self._applied_rows,
                patch_updates=self._patch_updates,
                rebuild_updates=self._rebuild_updates,
                failed_updates=self._failed_updates,
                runs=self._coalesced_runs,
                degraded=self._degraded is not None,
            )
            self.tracer.adopt(self._stream_span)
            self._stream_span = None

    def __enter__(self) -> "MaintenanceLoop":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the loop -------------------------------------------------------------

    def _run(self) -> None:
        while True:
            run = self.queue.pop_run(self.coalesce_rows, timeout=0.1)
            if run is None:  # closed and fully drained
                return
            if not run:
                continue
            with self._state_lock:
                self._in_flight = run
            try:
                self._apply(run)
            finally:
                with self._state_lock:
                    self._in_flight = []

    def _apply(self, run: list[UpdateTicket]) -> None:
        self._coalesced_runs += 1
        operation = run[0].operation
        if self._degraded is not None:
            error = StreamError(
                "maintenance loop is degraded after a mid-update fault "
                f"({self._degraded}); predictions keep serving the last "
                "published model, updates are refused",
                http_status=503,
            )
            self._failed_updates += len(run)
            for ticket in run:
                ticket._fail(error)
            return
        chunk = (
            run[0].rows
            if len(run) == 1
            else np.concatenate([t.rows for t in run])
        )
        started = time.monotonic()
        try:
            if operation == "insert":
                report = self.maintainer.insert(chunk)
            else:
                report = self.maintainer.delete(chunk)
        except Exception as exc:  # noqa: BLE001 - forwarded to every producer
            self._failed_updates += len(run)
            if not self._consistent():
                self._degraded = f"{type(exc).__name__}: {exc}"
            error = exc if isinstance(exc, StreamError) else StreamError(
                f"{operation} of {len(chunk)} rows failed: {exc}",
                http_status=500,
            )
            for ticket in run:
                ticket._fail(error)
            self._trace_run(operation, run, len(chunk), started, error=error)
            return
        version = self._published_version()
        self._applied_updates += len(run)
        self._applied_rows += len(chunk)
        if report.finalize.rebuilds > 0:
            self._rebuild_updates += 1
        else:
            self._patch_updates += 1
        for ticket in run:
            ticket._resolve(report, version)
        self._trace_run(operation, run, len(chunk), started, report=report)

    def _consistent(self) -> bool:
        """The maintainer's stores still agree with its logical row count."""
        try:
            return self.maintainer.stored_rows() == self.maintainer.n_rows
        except ReproError:  # skeleton gone entirely — definitely not healthy
            return False

    def _published_version(self) -> int:
        """Version the maintainer's listener chain just published (if any)."""
        return self.registry.version if self.registry is not None else 0

    def _trace_run(
        self, operation, run, rows, started, report=None, error=None
    ) -> None:
        if self._stream_span is None:
            return
        span = self.tracer.worker_span(
            "maintain",
            operation=operation,
            chunks=len(run),
            rows=int(rows),
            seconds=round(time.monotonic() - started, 6),
        )
        if report is not None:
            span.set(
                rebuilds=report.finalize.rebuilds,
                version=run[0].version,
            )
            span.status = "ok"
        else:
            span.set(error=str(error))
            span.status = "error"
        self._stream_span.children.append(span)

    # -- inspection -----------------------------------------------------------

    @property
    def degraded(self) -> str | None:
        """The fault that degraded the loop, or ``None`` while healthy."""
        return self._degraded

    def in_flight(self) -> tuple[int, float]:
        """``(chunks, oldest_age_s)`` of the run being applied right now."""
        with self._state_lock:
            if not self._in_flight:
                return 0, 0.0
            oldest = min(t.enqueued for t in self._in_flight)
            return len(self._in_flight), max(0.0, time.monotonic() - oldest)

    def staleness(self) -> tuple[int, float]:
        """``(pending_updates, staleness_s)`` — queue plus in-flight.

        ``staleness_s`` is the age of the oldest accepted-but-unapplied
        update; 0 when the served model is fully caught up.
        """
        chunks, age = self.in_flight()
        return (
            chunks + self.queue.pending_chunks(),
            max(age, self.queue.oldest_age()),
        )

    def stats(self) -> dict:
        pending_updates, staleness_s = self.staleness()
        return {
            "applied_updates": self._applied_updates,
            "applied_rows": self._applied_rows,
            "patch_updates": self._patch_updates,
            "rebuild_updates": self._rebuild_updates,
            "failed_updates": self._failed_updates,
            "coalesced_runs": self._coalesced_runs,
            "pending_updates": pending_updates,
            "staleness_s": round(staleness_s, 6),
            "degraded": self._degraded,
            "n_rows": self.maintainer.n_rows,
        }
