"""The request batcher: queue + coalescing between callers and the kernel.

Callers :meth:`~RequestBatcher.submit` structured batches of any size and
get back a :class:`PredictionTicket`.  A single dispatch thread drains
the bounded queue, coalesces requests up to ``max_batch_size`` rows or
``max_delay_ms`` (whichever comes first), takes *one* registry snapshot,
routes the concatenated rows through the compiled kernel once, and
slices the results back per request — so every request in a batch is
served by exactly one published model version.

Failure modes all surface as :class:`~repro.exceptions.ServeError`:

* **backpressure** — the queue is at ``queue_capacity`` rows; ``submit``
  rejects immediately (HTTP 429) instead of buffering unboundedly;
* **timeout** — a request that waited longer than its timeout is failed,
  whether the caller noticed first (:meth:`PredictionTicket.result`) or
  the dispatcher did when popping it (HTTP 504);
* **empty registry** — predictions demanded before any publish (503).

Tracing: when the tracer is enabled the batcher builds one detached
``serve`` span holding a ``serve_batch`` child per dispatched batch
(rows, request count, model version, queue wait) with per-request
``serve_request`` events beneath it; the span tree is attached to the
owning tracer when the batcher closes, mirroring the worker-span
discipline of the parallel build phases.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ServeError
from ..observability import NULL_TRACER, LatencyHistogram, NullTracer, Tracer
from .registry import ModelRegistry


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving layer (throughput/latency trade-offs only).

    Attributes:
        max_batch_size: dispatch as soon as this many rows are coalesced.
        max_delay_ms: dispatch a non-empty batch after at most this long,
            even if under-full — the tail-latency bound.
        queue_capacity: maximum queued *rows*; beyond it ``submit``
            raises the backpressure :class:`ServeError`.
        default_timeout_s: per-request timeout used when ``submit`` gets
            none; ``None`` waits forever.
        proba: serve class distributions instead of labels by default.
    """

    max_batch_size: int = 1024
    max_delay_ms: float = 2.0
    queue_capacity: int = 65536
    default_timeout_s: float | None = 10.0
    proba: bool = False

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive or None")


class PredictionTicket:
    """Handle for one submitted request; :meth:`result` blocks for it."""

    __slots__ = ("rows", "proba", "timeout", "enqueued", "version",
                 "_event", "_value", "_error")

    def __init__(self, rows: np.ndarray, proba: bool, timeout: float | None,
                 enqueued: float):
        self.rows = rows
        self.proba = proba
        self.timeout = timeout
        self.enqueued = enqueued
        #: Version of the model that served this request (set on success).
        self.version: int | None = None
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The prediction array; raises :class:`ServeError` on failure.

        ``timeout`` defaults to the request's own timeout.  Waiting out
        either bound raises the timeout :class:`ServeError` (HTTP 504).
        """
        wait = timeout if timeout is not None else self.timeout
        if not self._event.wait(wait):
            raise ServeError(
                f"prediction timed out after {wait:g}s "
                f"({len(self.rows)} rows still queued)",
                http_status=504,
            )
        if self._error is not None:
            raise self._error
        return self._value

    # dispatcher side ---------------------------------------------------------

    def _resolve(self, value: np.ndarray, version: int) -> None:
        self._value = value
        self.version = version
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class RequestBatcher:
    """Coalesces prediction requests into single compiled-kernel calls."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.registry = registry
        self.config = config or ServeConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._queue: queue.Queue = queue.Queue()
        self._queued_rows = 0
        self._rows_lock = threading.Lock()
        self._closed = False
        self._thread: threading.Thread | None = None
        # statistics (dispatcher-thread writes, stats() snapshots)
        self._latency = LatencyHistogram()
        self._n_requests = 0
        self._n_rows = 0
        self._n_batches = 0
        self._n_timeouts = 0
        self._n_rejected = 0
        self._serve_span = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RequestBatcher":
        if self._thread is not None:
            raise ServeError("batcher is already started")
        if self.tracer.enabled:
            self._serve_span = self.tracer.worker_span(
                "serve",
                max_batch_size=self.config.max_batch_size,
                max_delay_ms=self.config.max_delay_ms,
            )
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Reject new submissions, drain the queue, stop the thread."""
        if self._thread is None or self._closed:
            self._closed = True
            return
        self._closed = True
        self._queue.put(None)  # wake the dispatcher for shutdown
        self._thread.join()
        self._thread = None
        if self._serve_span is not None:
            self._serve_span.set(
                requests=self._n_requests,
                batches=self._n_batches,
                rows=self._n_rows,
                timeouts=self._n_timeouts,
                rejected=self._n_rejected,
            )
            self.tracer.adopt(self._serve_span)
            self._serve_span = None

    def __enter__(self) -> "RequestBatcher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- client side -----------------------------------------------------------

    def submit(
        self,
        rows: np.ndarray,
        proba: bool | None = None,
        timeout: float | None = None,
    ) -> PredictionTicket:
        """Enqueue a structured batch; returns immediately with a ticket."""
        if self._closed or self._thread is None:
            raise ServeError("batcher is not running", http_status=503)
        rows = np.asarray(rows)
        with self._rows_lock:
            if self._queued_rows + len(rows) > self.config.queue_capacity:
                self._n_rejected += 1
                raise ServeError(
                    f"serving queue is full ({self._queued_rows} of "
                    f"{self.config.queue_capacity} rows queued); "
                    "backpressure — retry later",
                    http_status=429,
                )
            self._queued_rows += len(rows)
        ticket = PredictionTicket(
            rows,
            self.config.proba if proba is None else proba,
            timeout if timeout is not None else self.config.default_timeout_s,
            time.monotonic(),
        )
        self._queue.put(ticket)
        return ticket

    def predict(
        self,
        rows: np.ndarray,
        proba: bool | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Synchronous submit-and-wait convenience."""
        return self.submit(rows, proba, timeout).result()

    def stats(self) -> dict:
        """Cumulative serving statistics, including a latency summary."""
        return {
            "requests": self._n_requests,
            "batches": self._n_batches,
            "rows": self._n_rows,
            "timeouts": self._n_timeouts,
            "rejected": self._n_rejected,
            "queued_rows": self._queued_rows,
            "model_version": self.registry.version,
            "latency": self._latency.summary(),
        }

    # -- dispatcher side ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        shutdown = False
        while not shutdown:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if first is None:
                shutdown = True
            else:
                shutdown = self._coalesce_and_run(first)
        # Drain everything still queued (submissions racing with close);
        # requests already accepted are served, not dropped.
        leftovers: list[PredictionTicket] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        while leftovers:
            cut = leftovers[: max(1, self.config.max_batch_size)]
            del leftovers[: len(cut)]
            self._run_batch(cut)

    def _coalesce_and_run(self, first: PredictionTicket) -> bool:
        """Gather one batch starting at ``first``; True means shutdown."""
        batch = [first]
        rows = len(first.rows)
        deadline = time.monotonic() + self.config.max_delay_ms / 1000.0
        shutdown = False
        while rows < self.config.max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                ticket = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if ticket is None:
                shutdown = True
                break
            batch.append(ticket)
            rows += len(ticket.rows)
        self._run_batch(batch)
        return shutdown

    def _run_batch(self, tickets: list[PredictionTicket]) -> None:
        started = time.monotonic()
        with self._rows_lock:
            self._queued_rows -= sum(len(t.rows) for t in tickets)
        live: list[PredictionTicket] = []
        for ticket in tickets:
            if (
                ticket.timeout is not None
                and started - ticket.enqueued > ticket.timeout
            ):
                self._n_timeouts += 1
                ticket._fail(ServeError(
                    f"prediction timed out after {ticket.timeout:g}s in the "
                    "serving queue",
                    http_status=504,
                ))
            else:
                live.append(ticket)
        if not live:
            return
        try:
            model = self.registry.current()  # ONE snapshot for the batch
            rows = np.concatenate([t.rows for t in live])
            leaf = model.predictor.leaf_indices(rows)
        except Exception as exc:  # noqa: BLE001 - forwarded to every caller
            error = exc if isinstance(exc, ServeError) else ServeError(
                f"prediction failed: {exc}", http_status=500
            )
            for ticket in live:
                ticket._fail(error)
            return
        finished = time.monotonic()
        offset = 0
        for ticket in live:
            end = offset + len(ticket.rows)
            if ticket.proba:
                ticket._resolve(model.predictor.leaf_proba[leaf[offset:end]],
                                model.version)
            else:
                ticket._resolve(model.predictor.leaf_label[leaf[offset:end]],
                                model.version)
            offset = end
            self._latency.record(finished - ticket.enqueued)
        self._n_requests += len(live)
        self._n_rows += len(rows)
        self._n_batches += 1
        if self._serve_span is not None:
            span = self.tracer.worker_span(
                "serve_batch",
                rows=int(len(rows)),
                requests=len(live),
                model_version=model.version,
                seconds=round(finished - started, 6),
            )
            for ticket in live:
                request = self.tracer.worker_span(
                    "serve_request",
                    rows=int(len(ticket.rows)),
                    wait_ms=round((finished - ticket.enqueued) * 1000.0, 3),
                    proba=ticket.proba,
                )
                request.status = "event"
                span.children.append(request)
            span.status = "ok"
            self._serve_span.children.append(span)
