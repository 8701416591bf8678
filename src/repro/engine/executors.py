"""Executor backends: where task closures actually run.

``serial`` executes tasks in submission order on the calling thread —
deterministic, ideal for tests.  ``threads`` uses a thread pool; the
pipeline's hot kernels (pair-HMM, Smith-Waterman, bit packing) are NumPy
code that releases the GIL, so threads deliver genuine parallel speedup
for the stages that dominate run time.

Both are *local* transports behind the pluggable
:class:`~repro.dist.transport.Transport` seam; the ``cluster`` backend
(:mod:`repro.dist.cluster`) resolves through the same registry and ships
task bodies to socket-connected worker nodes instead.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.dist.transport import Transport, create_transport, register_transport

T = TypeVar("T")


class Executor(Transport):
    """Runs a batch of task thunks and returns results in order.

    Kept as the engine-facing name; the interface (``run_all``,
    ``execute``, ``bind``, ``shutdown``) lives on
    :class:`~repro.dist.transport.Transport`.
    """


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


class SerialExecutor(Executor):
    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        return [task() for task in tasks]


class ThreadExecutor(Executor):
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


register_transport("serial", lambda **kwargs: SerialExecutor())
register_transport(
    "threads", lambda **kwargs: ThreadExecutor(kwargs.get("num_workers", 4))
)


def make_executor(backend: str, num_workers: int = 4, config=None) -> Executor:
    """Executor factory: 'serial', 'threads', or 'cluster'.

    Resolves through the transport registry, so plugins registered with
    :func:`repro.dist.register_transport` are selectable by name too.
    ``config`` (the owning ``EngineConfig``) is forwarded for transports
    that need more than a worker count — the cluster backend reads its
    listen address and fleet expectations from it.
    """
    return create_transport(backend, num_workers=num_workers, config=config)
