"""Tests for repro.parallel: the WorkerPool execution layer."""

from __future__ import annotations

import pytest

from repro.parallel import WorkerPool, chunked, effective_workers, resolve_backend


def square(x: int) -> int:
    return x * x


def boom(x: int) -> int:
    raise ValueError(f"task {x} failed")


class TestEffectiveWorkers:
    def test_positive_passthrough(self):
        assert effective_workers(3) == 3

    def test_zero_means_cpu_count(self):
        assert effective_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(-1)


class TestResolveBackend:
    def test_single_worker_is_serial(self):
        assert resolve_backend("auto", 1) == "serial"
        assert resolve_backend("process", 1) == "serial"
        assert resolve_backend("thread", 1) == "serial"

    def test_auto_picks_process(self):
        assert resolve_backend("auto", 2) == "process"

    def test_explicit_backends_kept(self):
        assert resolve_backend("thread", 2) == "thread"
        assert resolve_backend("process", 4) == "process"
        assert resolve_backend("serial", 4) == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            resolve_backend("mpi", 2)


class TestChunked:
    def test_even_split(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_oversized_chunk(self):
        assert chunked([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
class TestWorkerPoolBackends:
    def test_map_preserves_order(self, backend):
        with WorkerPool(2, backend) as pool:
            assert pool.map(square, range(20)) == [x * x for x in range(20)]

    def test_imap_preserves_order(self, backend):
        with WorkerPool(2, backend) as pool:
            assert list(pool.imap(square, range(20))) == [x * x for x in range(20)]

    def test_imap_small_prefetch(self, backend):
        with WorkerPool(2, backend) as pool:
            assert list(pool.imap(square, range(9), prefetch=1)) == [
                x * x for x in range(9)
            ]

    def test_task_exception_propagates(self, backend):
        with WorkerPool(2, backend) as pool:
            with pytest.raises(ValueError, match="task 0 failed"):
                pool.map(boom, range(4))

    def test_map_empty_input(self, backend):
        with WorkerPool(2, backend) as pool:
            assert pool.map(square, []) == []


class TestWorkerPool:
    def test_one_worker_is_serial(self):
        pool = WorkerPool(1, "process")
        assert pool.backend == "serial"
        assert not pool.is_parallel

    def test_parallel_pool_reports_parallel(self):
        with WorkerPool(2, "thread") as pool:
            assert pool.is_parallel

    def test_unused_pool_shutdown_is_noop(self):
        WorkerPool(4, "process").shutdown()

    def test_degraded_pool_recomputes_inline(self):
        with WorkerPool(2, "thread") as pool:
            assert pool.map(square, range(4)) == [0, 1, 4, 9]
            pool._degrade()
            assert not pool.is_parallel
            assert pool.map(square, range(4)) == [0, 1, 4, 9]
            assert list(pool.imap(square, range(7))) == [x * x for x in range(7)]

    def test_degradation_mid_imap_loses_no_items(self):
        with WorkerPool(2, "thread") as pool:
            results = []
            for i, value in enumerate(pool.imap(square, range(30), prefetch=3)):
                results.append(value)
                if i == 4:
                    pool._degrade()
            assert results == [x * x for x in range(30)]

    def test_repr_mentions_backend(self):
        assert "thread" in repr(WorkerPool(2, "thread"))
        pool = WorkerPool(2, "thread")
        pool._degrade()
        assert "degraded" in repr(pool)
