"""Worker-pool execution layer shared by every parallel phase.

BOAT's parallel phases are embarrassingly parallel in different ways:
the sampling phase grows ``b`` independent bootstrap trees (per
repetition for QUEST and the ``python`` backend), and the cleanup scan
routes independent table batches down a read-only skeleton.
Finalization does not run on the pool: it is one top-down pass whose
frontier completions depend on the tuples their ancestors route to them.
:class:`WorkerPool` gives both phases one facade over
``concurrent.futures`` with three backends:

* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  task functions and their arguments must be picklable (module-level
  functions, plain data), and each task carries everything it reads.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
  tasks share the parent's address space (the numpy kernels that
  dominate release the GIL).
* ``"serial"`` — no pool; tasks run inline in submission order.  This is
  also the degradation target whenever a real pool cannot start
  (sandboxes that forbid forking) or breaks mid-flight.

Both result-producing methods preserve input order, so callers get
deterministic, backend-independent results as long as task functions are
pure.  Task exceptions propagate to the caller; only *pool* failures
(:class:`~concurrent.futures.BrokenExecutor`) trigger the silent serial
fallback, which recomputes the affected items inline.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .config import PARALLEL_BACKENDS

T = TypeVar("T")
R = TypeVar("R")

#: Pool-level failures that demote the pool to serial execution.  Task
#: exceptions are *not* in this set — they propagate to the caller.
_POOL_FAILURES = (BrokenExecutor, OSError)


def effective_workers(n_workers: int) -> int:
    """Resolve the worker-count knob: ``0`` means one worker per CPU."""
    if n_workers < 0:
        raise ValueError("n_workers must be >= 0")
    if n_workers == 0:
        return max(os.cpu_count() or 1, 1)
    return n_workers


def resolve_backend(backend: str, n_workers: int) -> str:
    """Concrete backend for a (backend, n_workers) configuration.

    One worker never pays pool overhead (``"serial"``); ``"auto"`` picks
    the process backend, which parallelizes the pure-Python parts of tree
    growing that threads cannot.
    """
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; choose from {PARALLEL_BACKENDS}"
        )
    if effective_workers(n_workers) <= 1:
        return "serial"
    if backend == "auto":
        return "process"
    return backend


def chunked(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    """Split a sequence into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


class WorkerPool:
    """Ordered ``map``/``imap`` over a process, thread, or serial backend.

    Args:
        n_workers: worker count (``0`` = one per CPU).  A resolved count
            of 1 always runs serially.
        backend: ``"auto"``, ``"process"``, ``"thread"``, or ``"serial"``.
        tracer: optional :class:`~repro.observability.Tracer`; the pool
            records a ``pool_degraded`` event on it when a pool failure
            demotes execution to serial, so a trace explains why a
            "parallel" run ran at one worker.

    The underlying executor is created lazily on first use, so building a
    pool that ends up unused costs nothing.  Use as a context manager (or
    call :meth:`shutdown`) to reclaim workers.
    """

    def __init__(
        self,
        n_workers: int = 1,
        backend: str = "auto",
        tracer: "object | None" = None,
    ):
        self.n_workers = effective_workers(n_workers)
        self.backend = resolve_backend(backend, n_workers)
        self._tracer = tracer
        self._executor: Executor | None = None
        self._degraded = False
        # Guards lazy executor creation: the elastic shard dispatcher
        # drives one pool from several coordinator threads at once.
        self._executor_lock = threading.Lock()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Tear down the executor (no-op for serial / unused pools)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    @property
    def is_parallel(self) -> bool:
        """True when tasks can actually run concurrently."""
        return self.backend != "serial" and not self._degraded

    # -- internals ----------------------------------------------------------

    def _ensure_executor(self) -> Executor | None:
        if self._degraded or self.backend == "serial":
            return None
        with self._executor_lock:
            if self._degraded:
                return None
            if self._executor is None:
                try:
                    if self.backend == "process":
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.n_workers
                        )
                    else:
                        self._executor = ThreadPoolExecutor(
                            max_workers=self.n_workers,
                            thread_name_prefix="repro-worker",
                        )
                except _POOL_FAILURES + (RuntimeError,):
                    self._degrade()
            return self._executor

    def _degrade(self) -> None:
        """Drop to serial execution after a pool failure."""
        self._degraded = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._tracer is not None:
            self._tracer.event(
                "pool_degraded", backend=self.backend, n_workers=self.n_workers
            )

    # -- execution ------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order.

        The first task exception is re-raised (remaining tasks are
        cancelled); a broken pool silently degrades to inline execution.
        """
        items = list(items)
        executor = self._ensure_executor()
        if executor is None:
            return [fn(item) for item in items]
        futures: list[Future] = []
        try:
            futures = [executor.submit(fn, item) for item in items]
            return [future.result() for future in futures]
        except _POOL_FAILURES:
            self._degrade()
            return [fn(item) for item in items]
        finally:
            for future in futures:
                future.cancel()

    def imap(
        self,
        fn: Callable[[T], R],
        iterable: Iterable[T],
        prefetch: int | None = None,
    ) -> Iterator[R]:
        """Lazily apply ``fn``, yielding results in input order.

        At most ``prefetch`` tasks (default ``2 * n_workers``) are in
        flight at once, bounding memory for long streams.  A broken pool
        degrades to inline execution without losing items.
        """
        executor = self._ensure_executor()
        if executor is None:
            for item in iterable:
                yield fn(item)
            return
        if prefetch is None:
            prefetch = 2 * self.n_workers
        prefetch = max(prefetch, 1)
        iterator = iter(iterable)
        window: deque[tuple[T, Future | None]] = deque()
        exhausted = False
        while True:
            while not exhausted and not self._degraded and len(window) < prefetch:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                try:
                    window.append((item, executor.submit(fn, item)))
                except _POOL_FAILURES:
                    self._degrade()
                    window.append((item, None))
            if not window:
                if exhausted and self._degraded:
                    break
                if exhausted:
                    return
            if self._degraded:
                break
            item, future = window.popleft()
            try:
                yield future.result()
            except _POOL_FAILURES:
                self._degrade()
                window.appendleft((item, future))
                break
        # Degraded: recompute everything still pending, then drain the
        # iterator inline.  fn is pure by contract, so results match.
        for item, _ in window:
            yield fn(item)
        for item in iterator:
            yield fn(item)

    def __repr__(self) -> str:
        state = "degraded" if self._degraded else self.backend
        return f"WorkerPool(n_workers={self.n_workers}, backend={state!r})"
