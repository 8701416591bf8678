"""Executor backends: where task closures actually run.

``serial`` executes tasks in submission order on the calling thread —
deterministic, ideal for tests.  ``threads`` uses a thread pool; the
pipeline's hot kernels (pair-HMM, Smith-Waterman, bit packing) are NumPy
code that releases the GIL, so threads deliver genuine parallel speedup
for the stages that dominate run time.

Both are *local* transports behind the
:class:`~repro.dist.transport.Transport` seam; the ``cluster`` backend
(:mod:`repro.dist.cluster`) ships task bodies to socket-connected worker
nodes instead.  :func:`make_executor` picks one of the three by name.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.dist.transport import Transport

T = TypeVar("T")


def _drain_in_order(futures: Sequence[Future]) -> list:
    """Collect results in submission order; on the first failure, cancel
    every future that has not started yet so a failed stage stops the
    batch instead of letting queued tasks run to completion."""
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


class SerialExecutor(Transport):
    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        return [task() for task in tasks]


class ThreadExecutor(Transport):
    def __init__(self, num_workers: int):
        if num_workers <= 0:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._pool = ThreadPoolExecutor(max_workers=num_workers)

    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        futures = [self._pool.submit(task) for task in tasks]
        return _drain_in_order(futures)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(backend: str, num_workers: int = 4, config=None) -> Transport:
    """Executor factory: 'serial', 'threads', or 'cluster'.

    ``config`` (the owning ``EngineConfig``) is only read by the cluster
    backend, for its listen address and fleet expectations.
    """
    if backend == "serial":
        return SerialExecutor()
    if backend == "threads":
        return ThreadExecutor(num_workers)
    if backend == "cluster":
        from repro.dist.cluster import ClusterExecutor

        return ClusterExecutor(num_workers=num_workers, config=config)
    raise ValueError(
        f"unknown executor backend {backend!r}; options: cluster, serial, threads"
    )
