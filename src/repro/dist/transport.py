"""The Transport interface every executor backend implements.

A *transport* decides where task bodies physically run.  The engine's
scheduler is transport-agnostic: it builds per-partition thunks, hands
batches to :meth:`Transport.run_all`, and routes each measured attempt
through :meth:`Transport.execute` — the single seam a remote transport
overrides to ship the body somewhere else.  Local transports (serial
and threads — see :mod:`repro.engine.executors`) keep the default
inline ``execute`` and only differ in how ``run_all`` schedules thunks.

:func:`repro.engine.executors.make_executor` picks one of the three
backends by name and imports the cluster transport
(:mod:`repro.dist.cluster`: sockets, shipping, fleet state) only when
``cluster`` is asked for, so importing the engine never pays for it.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class Transport:
    """Where task thunks and task bodies run.

    Lifecycle: built by :func:`~repro.engine.executors.make_executor`,
    then :meth:`bind` is called once by the owning context (after its
    shuffle manager and block manager exist), then ``run_all``/``execute``
    during jobs, then :meth:`shutdown` at context stop.
    """

    #: Optional EventBus the owning context attaches; backends publish
    #: executor-level incidents (thread fallbacks, lost workers) to it.
    events = None
    #: Optional TelemetryRegistry the owning context attaches; backends
    #: count fallbacks, shipped tasks, and transport traffic on it.
    telemetry = None

    def bind(self, ctx) -> None:
        """Attach the owning context (the cluster transport installs its
        shuffle and allocates its namespace here).  Local transports
        ignore it."""

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
