"""repro.dist — the distributed execution plane.

Everything the engine needs to run on more than one box:

- :mod:`repro.dist.transport` — the ``Transport`` interface every
  executor backend implements (serial and threads are *local*
  transports, cluster the remote one).
- :mod:`repro.dist.protocol` — the stdlib-socket wire protocol:
  length-prefixed frames wrapping the existing ``GPFB`` crc32 framing.
- :mod:`repro.dist.shipping` — closure shipping: a pickler that sends
  lineage closures by value (marshalled code objects + cells) and swaps
  the driver context for the worker's.
- :mod:`repro.dist.worker` — the ``gpf worker`` daemon, the worker-side
  context, and ``DistShuffle`` (the engine's ``ShuffleManager`` plus
  map-output locations and peer fetch).
- :mod:`repro.dist.cluster` — the driver side: ``FleetServer`` (worker
  registry, heartbeats, block serving) and ``ClusterExecutor``.
- :mod:`repro.dist.spec` — shared ``--workers``-style spec parsers for
  ``gpf worker`` / ``gpf serve``.
"""

from repro.dist.transport import Transport

__all__ = ["Transport"]
