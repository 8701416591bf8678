"""Hash shuffle with real spill files — the only spill writer and reader.

Spark writes *all* shuffle data to disk, even for in-memory workloads — a
fact the paper leans on ("even in-memory workloads store shuffle data on
disk", §5.3.1).  This shuffle manager does the same: map tasks bucket their
output by the partitioner, serialize each bucket with the RDD's serializer,
and write one spill file per (shuffle, map partition, reduce partition),
named by :func:`spill_path`.  Reduce tasks read the files back.

Every backend runs this code.  The cluster's
:class:`~repro.dist.worker.DistShuffle` subclasses :class:`ShuffleManager`
and overrides only the per-map fetch step (:meth:`ShuffleManager._fetch`)
to pull blocks that another node holds from that peer.

A spill file that cannot be opened or read raises
:class:`~repro.engine.faults.ShuffleFetchFailedError`, so the scheduler
regenerates that map output from lineage on every backend.  Injected
``shuffle.fetch`` faults and crc failures stay plain, retried errors.

Time spent inside file read/write is recorded as *disk-blocked* time on the
running task.  Network-blocked time is modelled: a reduce task reading
bucket bytes ``b`` from ``m`` map outputs charges ``b * (m-1)/m /
network_bandwidth`` (all but its co-located map output crosses the fabric),
mirroring how Spark's fetch-wait instrumentation attributes remote reads.
"""

from __future__ import annotations

import os
import shutil
import threading
import zlib
from typing import Callable, Sequence

from repro.engine.blockmanager import frame_block, unframe_block
from repro.engine.bundle import PartitionChain, decode_partition, encode_partition
from repro.engine.faults import ShuffleFetchFailedError
from repro.engine.metrics import TaskMetrics, timed
from repro.engine.serializers import Serializer


def spill_path(root: str, shuffle_id: int, map_p: int, reduce_p: int) -> str:
    """The spill file of one (shuffle, map, reduce) block under ``root``.

    Ids must be non-negative ``int``\\ s: the block servers take them off
    the wire, and anything else (a string holding ``..``) could name a
    file outside ``root``.  Raises :class:`ShuffleFetchFailedError`
    without touching the file system otherwise.
    """
    for value in (shuffle_id, map_p, reduce_p):
        if type(value) is not int or value < 0:
            raise ShuffleFetchFailedError(
                shuffle_id, map_p, where=f"invalid block id {value!r}"
            )
    return os.path.join(root, f"shuffle_{shuffle_id}", f"{map_p}_{reduce_p}.bin")


class ShuffleManager:
    """Owns the spill directory and all shuffle state for one context."""

    def __init__(
        self,
        spill_dir: str,
        network_bandwidth: float | None = 1.25e9,
        compress: bool = False,
        telemetry=None,
        chaos=None,
    ):
        self._spill_dir = spill_dir
        self._network_bandwidth = network_bandwidth
        #: Optional ChaosInjector: shuffle.write faults surface as task
        #: OSErrors (retried), shuffle.fetch mangles exercise the crc path.
        self._chaos = chaos
        #: Optional TelemetryRegistry mirroring shuffle traffic as named
        #: whole-run counters (the context wires its own registry in).
        self._telemetry = telemetry
        #: Spark's spark.shuffle.compress: zlib over the serialized bucket.
        #: Off by default here because the gpf serializer already entropy-
        #: codes its payload; the ablation benches flip it per run.
        self._compress = compress
        self._lock = threading.Lock()
        #: shuffle_id -> number of map partitions.
        self._num_maps: dict[int, int] = {}
        self._next_id = 0
        os.makedirs(spill_dir, exist_ok=True)

    # -- registration ----------------------------------------------------
    def register(self, num_map: int) -> int:
        """Allocate a shuffle id for a map side of ``num_map`` partitions."""
        with self._lock:
            shuffle_id = self._next_id
            self._next_id += 1
            self._num_maps[shuffle_id] = num_map
        return shuffle_id

    # -- map side ----------------------------------------------------------
    def write(
        self,
        shuffle_id: int,
        map_partition: int,
        elements: Sequence[tuple],
        partition_func: Callable[[object], int],
        serializer: Serializer,
        task: TaskMetrics,
    ) -> None:
        """Bucket key-value pairs and spill each bucket to disk."""
        buckets: list[list] = [[] for _ in range(partition_func.num_partitions)]
        records = 0
        for kv in elements:
            buckets[partition_func(kv[0])].append(kv)
            records += 1
        shuffle_dir = os.path.dirname(
            spill_path(self._spill_dir, shuffle_id, map_partition, 0)
        )
        os.makedirs(shuffle_dir, exist_ok=True)
        total = 0
        for reduce_partition, bucket in enumerate(buckets):
            # Spill the compressed block form (crc32-framed v2 bundle):
            # spill I/O shrinks by the codec's compression ratio and a
            # torn file is detected on read instead of feeding garbage.
            body, _ = encode_partition(bucket, serializer)
            blob = frame_block(body)
            if self._compress:
                blob = b"z" + zlib.compress(blob, 1)
            else:
                blob = b"r" + blob
            total += len(blob)
            path = spill_path(
                self._spill_dir, shuffle_id, map_partition, reduce_partition
            )
            if self._chaos is not None:
                # An injected ENOSPC/EIO here kills the map attempt; the
                # scheduler retries it and the rewrite overwrites any
                # partial spill file from the failed attempt.
                self._chaos.hit(
                    "shuffle.write", shuffle=shuffle_id, map=map_partition
                )
            with timed(task, "disk_blocked"):
                with open(path, "wb") as fh:
                    fh.write(blob)
        task.shuffle_bytes_written += total
        task.records_written += records
        if self._telemetry is not None:
            self._telemetry.inc("shuffle.bytes_written", total)
            self._telemetry.inc("shuffle.records_written", records)

    # -- reduce side --------------------------------------------------------
    def read(
        self,
        shuffle_id: int,
        reduce_partition: int,
        serializer: Serializer,
        task: TaskMetrics,
    ) -> PartitionChain:
        """Read every map output's bucket for this reduce partition.

        Returns a re-iterable :class:`PartitionChain` over the fetched
        blocks in compressed form — the reduce task decodes lazily and
        never holds the whole fetched input as one record list.
        """
        with self._lock:
            num_map = self._num_maps[shuffle_id]
        parts: list = []
        total = 0
        for map_partition in range(num_map):
            blob = self._fetch(shuffle_id, map_partition, reduce_partition, task)
            total += len(blob)
            tag, body = blob[:1], blob[1:]
            if tag == b"z":
                body = zlib.decompress(body)
            # crc check catches torn/corrupt spill files before decode.
            part = decode_partition(unframe_block(body), serializer)
            if part:
                parts.append(part)
        chain = PartitionChain(parts)
        records = len(chain)  # from block headers — no decode needed
        task.shuffle_bytes_read += total
        task.records_read += records
        if self._telemetry is not None:
            self._telemetry.inc("shuffle.bytes_read", total)
            self._telemetry.inc("shuffle.records_read", records)
        if self._network_bandwidth and num_map > 1:
            remote_fraction = (num_map - 1) / num_map
            task.network_blocked += total * remote_fraction / self._network_bandwidth
        return chain

    def _fetch(
        self,
        shuffle_id: int,
        map_partition: int,
        reduce_partition: int,
        task: TaskMetrics,
    ) -> bytes:
        """One map output's bucket for ``reduce_partition``, as spilled."""
        path = spill_path(self._spill_dir, shuffle_id, map_partition, reduce_partition)
        try:
            with timed(task, "disk_blocked"):
                with open(path, "rb") as fh:
                    blob = fh.read()
        except OSError as exc:
            # A lost spill file never comes back by re-reading it: the
            # typed error makes the scheduler rewrite this map output.
            raise ShuffleFetchFailedError(
                shuffle_id, map_partition, where=str(exc)
            ) from exc
        if self._chaos is not None:
            # Fetch faults: a hit raises (connection-reset-class
            # failure), a mangle damages only this in-memory copy —
            # the crc check in read() fails the attempt, and the retry
            # re-reads the intact spill file.
            self._chaos.hit("shuffle.fetch", shuffle=shuffle_id, map=map_partition)
            blob = self._chaos.mangle(
                "shuffle.fetch", blob, shuffle=shuffle_id, map=map_partition
            )
        return blob

    # -- cleanup ---------------------------------------------------------
    def cleanup(self) -> None:
        """Delete every spill file and reset shuffle state."""
        shutil.rmtree(self._spill_dir, ignore_errors=True)
        os.makedirs(self._spill_dir, exist_ok=True)
        with self._lock:
            self._num_maps.clear()
