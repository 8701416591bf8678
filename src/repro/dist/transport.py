"""The pluggable Transport interface and its backend registry.

A *transport* decides where task bodies physically run.  The engine's
scheduler is transport-agnostic: it builds per-partition thunks, hands
batches to :meth:`Transport.run_all`, and routes each measured attempt
through :meth:`Transport.execute` — the single seam a remote transport
overrides to ship the body somewhere else.  Local transports (serial
and threads — see :mod:`repro.engine.executors`) keep the default
inline ``execute`` and only differ in how ``run_all`` schedules thunks.

The registry decouples backend *names* from backend *imports*: the
cluster transport lives in :mod:`repro.dist.cluster` (which pulls in
sockets, shipping, fleet state) and is resolved lazily, so importing the
engine never pays for it and there is no engine -> dist -> engine import
cycle.
"""

from __future__ import annotations

import importlib
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class Transport:
    """Where task thunks and task bodies run.

    Lifecycle: built by :func:`create_transport`, then :meth:`bind` is
    called once by the owning context (after its shuffle manager and
    block manager exist), then ``run_all``/``execute`` during jobs, then
    :meth:`shutdown` at context stop.
    """

    #: Optional EventBus the owning context attaches; backends publish
    #: executor-level incidents (thread fallbacks, lost workers) to it.
    events = None
    #: Optional TelemetryRegistry the owning context attaches; backends
    #: count fallbacks, shipped tasks, and transport traffic on it.
    telemetry = None

    def bind(self, ctx) -> None:
        """Attach the owning context (remote transports hook shuffle I/O
        and allocate their namespace here).  Local transports ignore it."""

    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run a batch of task thunks, returning results in order."""
        raise NotImplementedError

    def execute(self, body, task):
        """Run one measured task body; returns ``(task, value)``.

        The scheduler's retry/backoff machinery stays on the
        driver: this is only the *placement* decision.  Local transports
        run the body inline; the cluster transport ships it to a worker
        and returns the worker-mutated :class:`TaskMetrics` so blocked
        time measured remotely lands in the driver's accounting.
        """
        return task, body(task)

    def missing_map_outputs(self, shuffle_id: int) -> list[int]:
        """Map partitions of ``shuffle_id`` whose output is unreachable
        (the worker holding them died).  The scheduler re-runs these on
        a shuffle-fetch failure; local transports never lose outputs."""
        return []

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        pass


#: name -> factory(num_workers=..., config=...) -> Transport
_REGISTRY: dict[str, Callable[..., Transport]] = {}

#: Backends resolved on first use: name -> "module.path:factory_name".
_LAZY: dict[str, str] = {
    "cluster": "repro.dist.cluster:make_cluster_transport",
}


def register_transport(name: str, factory: Callable[..., Transport]) -> None:
    """Register a transport factory under a backend name."""
    _REGISTRY[name] = factory


def available_transports() -> list[str]:
    return sorted(set(_REGISTRY) | set(_LAZY))


def create_transport(name: str, **kwargs) -> Transport:
    """Instantiate a registered transport backend by name.

    ``kwargs`` carries ``num_workers`` and the owning ``EngineConfig``
    as ``config``; factories take what they need and ignore the rest.
    """
    factory = _REGISTRY.get(name)
    if factory is None and name in _LAZY:
        module_name, _, attr = _LAZY[name].partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[name] = factory
    if factory is None:
        raise ValueError(
            f"unknown executor backend {name!r}; "
            f"options: {', '.join(available_transports())}"
        )
    return factory(**kwargs)
