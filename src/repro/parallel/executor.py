"""Deterministic batched/parallel execution for the solver stack.

Every hot path of the RCR reproduction is embarrassingly parallel —
per-spec verification queries, per-frame QoS solves, per-particle PSO
fitness evaluations — and this module provides the one fan-out engine
they all share: an :class:`Executor` abstraction with serial,
thread-pool, and process-pool backends behind a single ``map`` API,
plus :func:`map_solve`, the chunked, budget-aware, instrumented fan-out
entry point.

The determinism contract
------------------------

Parallel execution must be *bit-identical* to serial execution:

* results are always returned in **task order**, never completion
  order;
* any per-task randomness must derive from :func:`derive_seed`
  (a stable hash of ``(master_seed, task_index, salt)``) so the random
  stream a task sees depends only on *which* task it is, not on which
  worker ran it or when;
* tasks must not communicate through shared mutable state (a
  scheduler run handed an executor, for example, deliberately does not
  share a circuit breaker across frames).

Under that contract ``SerialExecutor``, ``ThreadExecutor``, and
``ProcessExecutor`` are interchangeable, and the property suite in
``tests/test_parallel_determinism.py`` holds backend-for-backend.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.obs import SECONDS_BUCKETS, get_metrics, get_tracer
from repro.resilience import Budget

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "derive_seed",
    "map_solve",
    "BACKENDS",
]

T = TypeVar("T")
R = TypeVar("R")

#: backend names accepted by :func:`make_executor`
BACKENDS = ("serial", "thread", "process")


def derive_seed(master_seed: int, task_index: int, salt: str = "") -> int:
    """Stable task-index → seed derivation (the determinism linchpin).

    Hashes ``(master_seed, task_index, salt)`` with SHA-256 and folds the
    digest to a 63-bit integer, so the seed a task receives is a pure
    function of its identity — independent of worker assignment,
    completion order, and backend.  Distinct salts give independent
    streams for different subsystems sharing one master seed.
    """
    payload = f"{int(master_seed)}:{int(task_index)}:{salt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


class Executor:
    """Backend-agnostic ordered ``map``.

    Subclasses implement :meth:`map`, which must return results **in
    input order**.  Executors are context managers; :meth:`shutdown` is
    idempotent and the serial backend's is a no-op.
    """

    #: short name recorded in spans/metrics (``serial``/``thread``/``process``)
    backend = "abstract"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def map_cancellable(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Tuple[List[R], int]:
        """Ordered map that stops dispatching once ``should_cancel()`` fires.

        Returns ``(results, n_skipped)`` where ``results`` is an
        in-order *prefix* of the item results and ``n_skipped`` counts
        items whose results were not produced.  Work already running
        when cancellation fires cannot be interrupted (cooperative
        cancellation), but queued work is never started — the fix for
        executed-then-discarded waste under an expired budget.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (no-op for the serial backend)."""

    @property
    def max_workers(self) -> int:
        return 1

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(backend={self.backend!r}, max_workers={self.max_workers})"


class SerialExecutor(Executor):
    """In-process, in-order execution — the reference backend.

    Every other backend must reproduce this one's results bit-for-bit;
    it is also the fallback when worker pools are unavailable (e.g.
    sandboxed environments without process spawning).
    """

    backend = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def map_cancellable(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Tuple[List[R], int]:
        if should_cancel is None:
            return self.map(fn, items), 0
        results: List[R] = []
        for item in items:
            if should_cancel():
                break
            results.append(fn(item))
        return results, len(items) - len(results)


class _PoolExecutor(Executor):
    """Shared plumbing for the ``concurrent.futures``-backed pools."""

    _pool_cls: type

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self._max_workers = int(max_workers)
        self._pool: Optional[concurrent.futures.Executor] = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = self._pool_cls(max_workers=self._max_workers)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        try:
            # collect in submission (= input) order, not completion order
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise

    def map_cancellable(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> Tuple[List[R], int]:
        if should_cancel is None:
            return self.map(fn, items), 0
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        results: List[R] = []
        try:
            for index, future in enumerate(futures):
                if should_cancel():
                    # still-queued futures are withdrawn from the pool;
                    # ones already running finish but their results are
                    # dropped (cooperative cancellation cannot preempt)
                    for pending in futures[index:]:
                        pending.cancel()
                    break
                results.append(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results, len(items) - len(results)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend: cheap dispatch, shared memory.

    Best for tasks that release the GIL (BLAS-heavy solves) or are
    I/O-bound; results remain deterministic because ordering and seeding
    never depend on scheduling.
    """

    backend = "thread"
    _pool_cls = concurrent.futures.ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend: true multi-core fan-out.

    Task functions and arguments must be picklable; worker-side metrics
    and trace spans stay in the worker process (coordinators therefore
    record aggregate ``parallel.*`` metrics on the parent side).
    """

    backend = "process"
    _pool_cls = concurrent.futures.ProcessPoolExecutor


def make_executor(backend: str = "serial", max_workers: int = 2) -> Executor:
    """Build an executor by backend name (``serial``/``thread``/``process``)."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(max_workers=max_workers)
    if backend == "process":
        return ProcessExecutor(max_workers=max_workers)
    raise ConfigurationError(f"unknown backend {backend!r}; choose from {BACKENDS}")


def _chunks(n_items: int, chunk_size: int) -> Iterable[range]:
    for start in range(0, n_items, chunk_size):
        yield range(start, min(start + chunk_size, n_items))


def map_solve(
    fn: Callable[[T], R],
    items: Sequence[T],
    executor: Optional[Executor] = None,
    budget: Optional[Budget] = None,
    chunk_size: Optional[int] = None,
    label: str = "map_solve",
) -> List[R]:
    """Chunked fan-out of ``fn`` over ``items`` with cooperative cancellation.

    Items are dispatched in chunks (default: ``4 * max_workers``).  The
    resilience ``budget`` is checked between chunks *and* between the
    items of the in-flight chunk (via
    :meth:`Executor.map_cancellable`), so when the budget expires
    mid-chunk the still-queued work is withdrawn from the pool rather
    than executed-then-discarded, and
    :class:`~repro.exceptions.BudgetExceededError` is raised.  One unit
    of budget is charged per completed task.

    Emits a ``parallel.map`` span and ``parallel.tasks`` /
    ``parallel.cancelled_tasks`` / ``parallel.cancelled_chunks``
    counters labelled by backend and ``label`` (``cancelled_chunks``
    counts chunks not fully executed: the partially-run in-flight chunk
    plus every never-dispatched one); results preserve input order on
    every backend.
    """
    executor = executor or SerialExecutor()
    items = list(items)
    n = len(items)
    if chunk_size is None:
        chunk_size = max(1, 4 * executor.max_workers)
    elif chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    metrics = get_metrics()
    start = time.perf_counter()
    results: List[R] = []
    chunks = list(_chunks(n, chunk_size))
    should_cancel = (lambda: budget.expired) if budget is not None else None

    def record_cancelled(chunk_index: int, span) -> None:
        cancelled = n - len(results)
        metrics.counter("parallel.cancelled_tasks", backend=executor.backend,
                        label=label).inc(cancelled)
        metrics.counter("parallel.cancelled_chunks", backend=executor.backend,
                        label=label).inc(len(chunks) - chunk_index)
        span.set(cancelled=cancelled, completed=len(results),
                 cancelled_chunks=len(chunks) - chunk_index)

    with get_tracer().span("parallel.map", backend=executor.backend,
                           label=label, n_tasks=n,
                           max_workers=executor.max_workers) as span:
        try:
            for chunk_index, chunk in enumerate(chunks):
                if budget is not None:
                    try:
                        budget.check(context=f"parallel[{label}]")
                    except BudgetExceededError:
                        record_cancelled(chunk_index, span)
                        raise
                chunk_results, skipped = executor.map_cancellable(
                    fn, [items[i] for i in chunk], should_cancel)
                results.extend(chunk_results)
                if skipped:
                    # the budget expired inside this chunk: queued items
                    # were withdrawn, remaining chunks never dispatch
                    record_cancelled(chunk_index, span)
                    assert budget is not None
                    budget.check(context=f"parallel[{label}]")
                    raise BudgetExceededError(  # pragma: no cover - guard
                        f"parallel[{label}] cancelled mid-chunk")
                if budget is not None:
                    budget.charge(len(chunk))
        finally:
            metrics.counter("parallel.tasks", backend=executor.backend,
                            label=label).inc(len(results))
            metrics.histogram("parallel.map_seconds", buckets=SECONDS_BUCKETS,
                              backend=executor.backend,
                              label=label).observe(time.perf_counter() - start)
        span.set(completed=len(results))
    return results
