"""Worker-side machinery: context stub, P2P shuffle, and the daemon.

A worker node runs the *same source tree* as the driver and receives
task bodies by value (:mod:`repro.dist.shipping`).  Everything a task
body reaches through ``ctx`` resolves to a :class:`WorkerContext`: a
worker-local block manager behind the engine's own cache/checkpoint
code, a :class:`DistShuffle` — the engine's
:class:`~repro.engine.shuffle.ShuffleManager` plus a locations table —
whose reduce side fetches map blocks *from peer workers* (never through
the driver), and telemetry that travels home with each result frame.

The daemon (``gpf worker --connect HOST:PORT``) opens one task channel
per slot, serves shuffle blocks to peers on its own listener, and
heartbeats the driver from a separate thread.  It exits when the driver
closes the task channels (orderly shutdown) or on SIGTERM.
"""

from __future__ import annotations

import os
import socket
import sys
import tempfile
import threading
import time
import traceback

from repro.dist import protocol
from repro.dist.shipping import ship_loads
from repro.engine.blockmanager import BlockManager
from repro.engine.bundle import PartitionChain, encode_partition
from repro.engine.context import BlockStoreMixin
from repro.engine.faults import ShuffleFetchFailedError
from repro.engine.metrics import timed
from repro.engine.shuffle import ShuffleManager, spill_path
from repro.obs import EventBus, NoopTracer, TelemetryRegistry


#: Socket timeout for peer block fetches; a hung peer must fail the
#: task (-> retry + recovery) rather than wedge the reduce slot.
FETCH_TIMEOUT = 30.0


class _TaskLocalTelemetry:
    """Telemetry facade routing to the running task's private registry.

    One WorkerContext is shared by every slot thread of a namespace;
    counters incremented during a task must travel home with *that*
    task's result frame, so each slot activates a thread-local registry
    for the duration of its task.  Increments outside any task (rare:
    daemon housekeeping) fall through to a base registry that stays on
    the worker.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._base = TelemetryRegistry()

    def activate(self) -> TelemetryRegistry:
        registry = TelemetryRegistry()
        self._tls.registry = registry
        return registry

    def deactivate(self) -> None:
        self._tls.registry = None

    def _target(self) -> TelemetryRegistry:
        return getattr(self._tls, "registry", None) or self._base

    def inc(self, name: str, delta: float = 1) -> None:
        self._target().inc(name, delta)

    def observe(self, name: str, value: float) -> None:
        self._target().observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self._target().set_gauge(name, value)

    def counter(self, name: str) -> float:
        return self._target().counter(name)

    def snapshot(self) -> dict:
        return self._target().snapshot()


def fetch_block(
    sock: socket.socket, ns: int, shuffle_id: int, map_p: int, reduce_p: int
) -> bytes:
    """Fetch one shuffle block over an open peer connection."""
    protocol.send_frame(
        sock,
        protocol.MSG_FETCH,
        {"ns": ns, "shuffle": shuffle_id, "map": map_p, "reduce": reduce_p},
    )
    kind, header, body = protocol.recv_frame(sock)
    if kind == protocol.MSG_BLOCK:
        return body
    if kind == protocol.MSG_ERROR:
        raise protocol.decode_error(header)
    raise protocol.ProtocolError(f"unexpected reply {kind!r} to FETCH")


def serve_fetch_connection(conn: socket.socket, path_for, initial: dict | None = None) -> None:
    """Serve FETCH requests on one connection until the peer hangs up.

    ``path_for(ns, shuffle, map, reduce)`` maps a block identity to its
    file path through :func:`~repro.engine.shuffle.spill_path` (or None
    when the namespace is unknown), so ids that are not non-negative
    ints never reach the file system.  A missing block or an invalid id
    answers with a pickled :class:`ShuffleFetchFailedError` so the
    fetching task fails with the *typed* error the scheduler's recovery
    path keys on.  ``initial`` is a FETCH header the caller already read
    off the socket (the fleet server dispatches on the first frame).
    """
    try:
        header = initial
        while True:
            if header is None:
                try:
                    kind, header, _ = protocol.recv_frame(conn)
                except protocol.ConnectionClosed:
                    return
                if kind == protocol.MSG_GOODBYE:
                    return
                if kind != protocol.MSG_FETCH:
                    protocol.send_error(
                        conn,
                        protocol.ProtocolError(f"unexpected {kind!r} on fetch channel"),
                    )
                    header = None
                    continue
            shuffle_id = header.get("shuffle", -1)
            map_p = header.get("map", -1)
            blob = None
            try:
                path = path_for(
                    header.get("ns", -1), shuffle_id, map_p, header.get("reduce", -1)
                )
                if path is not None:
                    with open(path, "rb") as fh:
                        blob = fh.read()
            except (OSError, TypeError, ShuffleFetchFailedError):
                blob = None  # unreadable, or ids that name no block
            if blob is None:
                protocol.send_error(
                    conn,
                    ShuffleFetchFailedError(shuffle_id, map_p, where="block server"),
                )
            else:
                protocol.send_frame(conn, protocol.MSG_BLOCK, {"ok": True}, blob)
            header = None
    except (OSError, protocol.ProtocolError):
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def run_block_server(
    bind_host: str, path_for, *, port: int = 0
) -> tuple[socket.socket, int, threading.Thread]:
    """Start the shuffle block server; returns (listener, port, thread)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind_host, port))
    listener.listen(64)

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(
                target=serve_fetch_connection,
                args=(conn, path_for),
                daemon=True,
                name="gpf-dist-blockserve",
            ).start()

    thread = threading.Thread(
        target=accept_loop, daemon=True, name="gpf-dist-blockserver"
    )
    thread.start()
    return listener, listener.getsockname()[1], thread


class DistShuffle(ShuffleManager):
    """The engine's :class:`~repro.engine.shuffle.ShuffleManager`, spread
    over the fleet.

    Spill files, their bytes and the counters are the base class's; this
    subclass adds only what is distributed:

    - the *locations* table (map partition -> ``(host, port)`` of the
      node whose block server holds its output);
    - the per-task output manifest a worker returns with each result;
    - peer FETCH for map outputs held by another node, in their
      compressed resident form — no re-pickling.

    Used on both ends: workers get a per-namespace instance with
    locations snapshotted from each TASK frame; the driver's
    :class:`~repro.dist.cluster.ClusterExecutor` installs one as
    ``ctx.shuffle_manager``, whose locations resolve live, so
    locally-fallen-back tasks interoperate with remote ones.  Fetch time
    is measured here, so the base class's modelled network charge is off.
    """

    def __init__(
        self,
        root: str,
        self_addr: tuple[str, int],
        *,
        ns: int = 0,
        compress: bool = False,
        chaos=None,
        telemetry=None,
    ):
        super().__init__(
            root,
            network_bandwidth=None,
            compress=compress,
            telemetry=telemetry,
            chaos=chaos,
        )
        self._self_addr = tuple(self_addr)
        self._ns = ns
        #: shuffle_id -> {map_p: (host, port)}; guarded by the base _lock.
        self._locations: dict[int, dict[int, tuple[str, int]]] = {}
        self._tls = threading.local()

    # -- locations -------------------------------------------------------
    def set_locations(self, locations: dict) -> None:
        """Merge a TASK frame's locations snapshot (worker side)."""
        with self._lock:
            for shuffle_id, entry in (locations or {}).items():
                self._num_maps[shuffle_id] = entry["num_map"]
                self._locations.setdefault(shuffle_id, {}).update(
                    entry.get("maps", {})
                )

    def add_location(self, shuffle_id: int, map_partition: int, addr) -> None:
        """Record which node holds one map output."""
        with self._lock:
            self._locations.setdefault(shuffle_id, {})[map_partition] = tuple(addr)

    def snapshot_locations(self, shuffle_ids) -> dict:
        """A picklable copy of the locations of ``shuffle_ids`` (TASK
        header): only the shuffles the shipped task reads."""
        with self._lock:
            return {
                shuffle_id: {
                    "num_map": self._num_maps[shuffle_id],
                    "maps": dict(self._locations.get(shuffle_id, {})),
                }
                for shuffle_id in shuffle_ids
                if shuffle_id in self._num_maps
            }

    def locations(self, shuffle_id: int) -> dict[int, tuple[str, int]]:
        """Where each written map output of ``shuffle_id`` lives."""
        with self._lock:
            return dict(self._locations.get(shuffle_id, {}))

    # -- per-task output manifest (worker side) --------------------------
    def begin_task(self) -> None:
        """Start collecting this thread's map outputs for the result frame."""
        self._tls.outputs = []

    def drain_outputs(self) -> list[tuple[int, int]]:
        outputs = getattr(self._tls, "outputs", None) or []
        self._tls.outputs = []
        return outputs

    # -- map side --------------------------------------------------------
    def write(
        self, shuffle_id, map_partition, elements, partition_func, serializer, task
    ) -> None:
        super().write(
            shuffle_id, map_partition, elements, partition_func, serializer, task
        )
        self.add_location(shuffle_id, map_partition, self._self_addr)
        # A worker reports the output home in its result frame; the
        # driver never begins a task, so its inline writes stop here.
        outputs = getattr(self._tls, "outputs", None)
        if outputs is not None:
            outputs.append((shuffle_id, map_partition))

    # -- reduce side -----------------------------------------------------
    def read(self, shuffle_id, reduce_partition, serializer, task) -> PartitionChain:
        with self._lock:
            num_map = self._num_maps.get(shuffle_id)
            maps = dict(self._locations.get(shuffle_id, {}))
        if num_map is None:
            raise ShuffleFetchFailedError(shuffle_id, -1, where="unknown shuffle")
        missing = [m for m in range(num_map) if m not in maps]
        if missing:
            raise ShuffleFetchFailedError(shuffle_id, missing[0], where="no location")
        # Peer connections live for this one read: one socket per peer,
        # reused across that peer's map outputs, closed on the way out.
        self._tls.fetch = (maps, {})
        try:
            return super().read(shuffle_id, reduce_partition, serializer, task)
        finally:
            _, peer_socks = self._tls.fetch
            self._tls.fetch = None
            for sock in peer_socks.values():
                try:
                    sock.close()
                except OSError:
                    pass

    def _fetch(self, shuffle_id, map_partition, reduce_partition, task) -> bytes:
        maps, peer_socks = self._tls.fetch
        addr = tuple(maps[map_partition])
        if addr == self._self_addr:
            return super()._fetch(shuffle_id, map_partition, reduce_partition, task)
        if self._chaos is not None:
            # dist.fetch faults: a hit simulates a dead or refusing peer
            # (typed as a fetch failure so the scheduler's recovery path
            # exercises), a mangle corrupts the fetched bytes so the crc
            # check fails the attempt.
            try:
                self._chaos.hit("dist.fetch", shuffle=shuffle_id, map=map_partition)
            except Exception as exc:  # noqa: BLE001 - typed below
                raise ShuffleFetchFailedError(
                    shuffle_id, map_partition, where=f"chaos: {exc}"
                ) from exc
        try:
            sock = peer_socks.get(addr)
            if sock is None:
                sock = socket.create_connection(addr, timeout=FETCH_TIMEOUT)
                peer_socks[addr] = sock
            with timed(task, "network_blocked"):
                blob = fetch_block(
                    sock, self._ns, shuffle_id, map_partition, reduce_partition
                )
        except ShuffleFetchFailedError:
            raise
        except (OSError, protocol.ProtocolError) as exc:
            raise ShuffleFetchFailedError(
                shuffle_id, map_partition, where=f"{addr[0]}:{addr[1]}: {exc}"
            ) from exc
        if self._chaos is not None:
            blob = self._chaos.mangle(
                "dist.fetch", blob, shuffle=shuffle_id, map=map_partition
            )
        if self._telemetry is not None:
            self._telemetry.inc("dist.fetch_bytes", len(blob))
            self._telemetry.inc("dist.fetches")
        return blob


class WorkerContext(BlockStoreMixin):
    """The ``ctx`` a shipped task body sees on a worker node.

    Implements exactly the context surface lineage code touches at
    *compute* time: serializer, cache/checkpoint block I/O (the engine's
    :class:`~repro.engine.context.BlockStoreMixin` over a worker-local
    block manager — a partition cached by one task is reused by the next
    task of the same namespace), the P2P shuffle, telemetry, and an
    inert event bus.  Driver-only machinery (scheduler, executor,
    accumulators) is deliberately absent; a closure that calls
    ``ctx.run_job`` mid-task gets a clear error instead of a deadlock.
    """

    is_remote_worker = True

    def __init__(
        self,
        root: str,
        ns: int,
        self_addr: tuple[str, int],
        serializer,
        *,
        compress: bool = False,
        decode_batch_size: int = 512,
    ):
        self.ns = ns
        self.serializer = serializer
        self.decode_batch_size = decode_batch_size
        self.telemetry = _TaskLocalTelemetry()
        self.events = EventBus()
        self.tracer = NoopTracer()
        self.chaos = None
        from repro.formats.quarantine import QuarantineSink

        self.quarantine = QuarantineSink(events=self.events)
        ns_dir = os.path.join(root, f"ns{ns}")
        os.makedirs(ns_dir, exist_ok=True)
        self.block_manager = BlockManager(
            os.path.join(ns_dir, "blocks"),
            checkpoint_dir=os.path.join(ns_dir, "checkpoints"),
            events=self.events,
        )
        self.shuffle_manager = DistShuffle(
            ns_dir,
            self_addr,
            ns=ns,
            compress=compress,
            telemetry=self.telemetry,
        )

    # -- guards ----------------------------------------------------------
    def run_job(self, rdd, partitions=None):
        raise RuntimeError(
            "nested run_job inside a shipped task: actions must run on "
            "the driver, not inside lineage closures"
        )

    def _register_rdd(self, rdd) -> int:  # unpickled RDDs keep their ids
        raise RuntimeError("new RDDs cannot be created inside a shipped task")


class WorkerDaemon:
    """One worker node: task slots, block server, heartbeats.

    ``slots`` is the worker's task parallelism: each slot is a dedicated
    socket connection to the driver's fleet server, so the driver's slot
    pool *is* the fleet's admission control and no frame multiplexing is
    needed.
    """

    def __init__(
        self,
        connect: tuple[str, int],
        *,
        slots: int | None = None,
        worker_id: str | None = None,
        root_dir: str | None = None,
        advertise_host: str | None = None,
        connect_timeout: float = 10.0,
    ):
        self.connect_addr = tuple(connect)
        self.slots = max(1, slots or (os.cpu_count() or 2))
        self.worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
        self.root_dir = root_dir or tempfile.mkdtemp(prefix="gpf_worker_")
        self._owns_root = root_dir is None
        self.advertise_host = advertise_host or self.connect_addr[0]
        self.connect_timeout = connect_timeout
        self._stop = threading.Event()
        self._contexts: dict[int, WorkerContext] = {}
        self._contexts_lock = threading.Lock()
        self._heartbeat_interval = 1.0
        self._block_listener: socket.socket | None = None
        self.fetch_port: int | None = None
        self.tasks_run = 0

    # -- namespace state -------------------------------------------------
    def _context_for(self, header: dict) -> WorkerContext:
        ns = header["ns"]
        with self._contexts_lock:
            wctx = self._contexts.get(ns)
            if wctx is None:
                wctx = WorkerContext(
                    self.root_dir,
                    ns,
                    (self.advertise_host, self.fetch_port),
                    header["serializer"],
                    compress=header.get("compress", False),
                    decode_batch_size=header.get("batch", 512),
                )
                self._contexts[ns] = wctx
        return wctx

    def _block_path(self, ns: int, shuffle_id: int, map_p: int, reduce_p: int):
        with self._contexts_lock:
            known = ns in self._contexts
        if not known:
            return None
        return spill_path(
            os.path.join(self.root_dir, f"ns{ns}"), shuffle_id, map_p, reduce_p
        )

    # -- task execution --------------------------------------------------
    def _run_task(self, header: dict, body_blob: bytes) -> tuple[dict, bytes]:
        wctx = self._context_for(header)
        wctx.shuffle_manager.set_locations(header.get("locations") or {})
        wctx.chaos = header.get("chaos")
        wctx.shuffle_manager._chaos = wctx.chaos
        registry = wctx.telemetry.activate()
        wctx.shuffle_manager.begin_task()
        try:
            body, task = ship_loads(body_blob, wctx)
            started = time.perf_counter()
            value = body(task)
            task.run_time = time.perf_counter() - started
            task.finalize()
            outputs = wctx.shuffle_manager.drain_outputs()
            if value is None:
                encoding, result_blob = "none", b""
            else:
                try:
                    elements = value if isinstance(value, list) else list(value)
                    result_blob, _ = encode_partition(elements, wctx.serializer)
                    encoding = "bundle"
                except Exception:  # noqa: BLE001 - non-record values
                    import pickle as _pickle

                    result_blob = _pickle.dumps(
                        value, protocol=_pickle.HIGHEST_PROTOCOL
                    )
                    encoding = "pickle"
            self.tasks_run += 1
            reply = {
                "task": task,
                "outputs": outputs,
                "encoding": encoding,
                "telemetry": registry.snapshot()["counters"],
                "worker": self.worker_id,
            }
            return reply, result_blob
        finally:
            wctx.telemetry.deactivate()

    def _slot_loop(self, slot: int) -> None:
        try:
            sock = socket.create_connection(
                self.connect_addr, timeout=self.connect_timeout
            )
        except OSError:
            self._stop.set()
            return
        sock.settimeout(None)
        try:
            protocol.send_frame(
                sock,
                protocol.MSG_REGISTER,
                {
                    "worker": self.worker_id,
                    "slot": slot,
                    "slots": self.slots,
                    "pid": os.getpid(),
                    "fetch": (self.advertise_host, self.fetch_port),
                },
            )
            kind, header, _ = protocol.recv_frame(sock)
            if kind != protocol.MSG_WELCOME:
                return
            self._heartbeat_interval = header.get("heartbeat", 1.0)
            while not self._stop.is_set():
                try:
                    kind, header, body = protocol.recv_frame(sock)
                except protocol.ConnectionClosed:
                    return  # driver went away: orderly exit
                if kind == protocol.MSG_GOODBYE:
                    return
                if kind != protocol.MSG_TASK:
                    continue
                try:
                    reply, result_blob = self._run_task(header, body)
                except BaseException as exc:  # noqa: BLE001 - shipped home
                    protocol.send_error(sock, exc, traceback.format_exc())
                else:
                    protocol.send_frame(
                        sock, protocol.MSG_RESULT, reply, result_blob
                    )
        except (OSError, protocol.ProtocolError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _heartbeat_loop(self) -> None:
        while not self._stop.is_set():
            try:
                with socket.create_connection(
                    self.connect_addr, timeout=self.connect_timeout
                ) as sock:
                    protocol.send_frame(
                        sock, protocol.MSG_PING, {"worker": self.worker_id}
                    )
            except OSError:
                pass  # driver busy/restarting; slots detect real loss
            self._stop.wait(self._heartbeat_interval)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start the block server, slot threads, and heartbeats."""
        os.makedirs(self.root_dir, exist_ok=True)
        self._block_listener, self.fetch_port, _ = run_block_server(
            "0.0.0.0", self._block_path
        )
        self._threads = [
            threading.Thread(
                target=self._slot_loop, args=(i,), daemon=True,
                name=f"gpf-worker-slot-{i}",
            )
            for i in range(self.slots)
        ]
        for thread in self._threads:
            thread.start()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="gpf-worker-heartbeat"
        )
        self._hb_thread.start()

    def wait(self) -> None:
        """Block until every slot loop has exited (driver hung up)."""
        for thread in self._threads:
            while thread.is_alive():
                thread.join(0.2)
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._block_listener is not None:
            try:
                self._block_listener.close()
            except OSError:
                pass
            self._block_listener = None
        if self._owns_root:
            import shutil

            shutil.rmtree(self.root_dir, ignore_errors=True)

    def run(self) -> None:
        """start() + wait(); the ``gpf worker`` entry point."""
        self.start()
        print(
            f"gpf worker {self.worker_id}: {self.slots} slot(s), "
            f"fetch port {self.fetch_port}, driver "
            f"{self.connect_addr[0]}:{self.connect_addr[1]}",
            file=sys.stderr,
            flush=True,
        )
        self.wait()
