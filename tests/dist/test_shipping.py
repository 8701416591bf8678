"""Closure shipping round-trips, including over a real socket.

Satellite coverage: serializer round-trips across a socketpair under
partial reads, and the GPB2 compressed-bundle path for
``ParallelCollectionRDD`` slices with worker-side lazy decode.
"""

import io
import os
import pickle
import socket

import pytest

from repro.dist import protocol
from repro.dist.shipping import CTX_TOKEN, ShipPickler, ship_dumps, ship_loads
from repro.dist.spec import format_hostport
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.rdd import ShuffleDependency
from repro.engine.scheduler import DAGScheduler

HELPER_CONSTANT = 7


@pytest.fixture()
def ctx(tmp_path):
    context = GPFContext(
        EngineConfig(default_parallelism=3, spill_dir=str(tmp_path / "spill"))
    )
    yield context
    context.stop()


@pytest.fixture()
def worker_ctx(ctx, tmp_path):
    from repro.dist.worker import WorkerContext

    wctx = WorkerContext(
        str(tmp_path / "worker"),
        0,
        ("127.0.0.1", 0),
        ctx.serializer,
    )
    return wctx


class TestFunctions:
    def test_importable_function_ships_by_reference(self, ctx):
        loaded = ship_loads(ship_dumps(format_hostport, ctx), ctx)
        assert loaded is format_hostport

    def test_lambda_ships_by_value(self, ctx):
        loaded = ship_loads(ship_dumps(lambda x: x * 3, ctx), ctx)
        assert loaded(14) == 42

    def test_closure_cells_travel(self, ctx):
        def make_adder(n):
            def add(x):
                return x + n

            return add

        loaded = ship_loads(ship_dumps(make_adder(10), ctx), ctx)
        assert loaded(5) == 15

    def test_referenced_globals_travel(self, ctx):
        def f(x):
            return x + HELPER_CONSTANT

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded(1) == 8

    def test_globals_of_nested_lambdas_travel(self, ctx):
        # The constant is only named inside the *inner* code object; the
        # globals walk must recurse through nested co_consts.
        def f():
            return (lambda: HELPER_CONSTANT)()

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded() == HELPER_CONSTANT

    def test_captured_module_reimports(self, ctx):
        def f(a, b):
            return os.path.join(a, b)

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded("x", "y") == os.path.join("x", "y")

    def test_unresolved_closure_cell_is_a_pickling_error(self, ctx):
        def outer():
            def f():
                return late

            if False:
                late = 1  # noqa: F841 - makes `late` a (forever empty) cell
            return f

        with pytest.raises(pickle.PicklingError, match="unresolved closure"):
            ship_dumps(outer(), ctx)


class TestContextToken:
    def test_driver_context_swaps_for_the_worker_context(self, ctx, worker_ctx):
        blob = ship_dumps({"ctx": ctx, "n": 3}, ctx)
        assert CTX_TOKEN.encode() in blob  # the context itself never ships
        loaded = ship_loads(blob, worker_ctx)
        assert loaded["ctx"] is worker_ctx
        assert loaded["n"] == 3

    def test_unknown_persistent_id_is_rejected(self, ctx):
        marker = object()

        class WrongPid(ShipPickler):
            def persistent_id(self, obj):
                return "gpf:wrong" if obj is marker else None

        buffer = io.BytesIO()
        WrongPid(buffer, ctx).dump(marker)
        with pytest.raises(pickle.UnpicklingError, match="gpf:wrong"):
            ship_loads(buffer.getvalue(), ctx)


class TestParallelCollectionBundles:
    def test_slices_ship_as_compressed_bundles(self, ctx, worker_ctx):
        data = [(f"k{i % 5}", i) for i in range(200)]
        rdd = ctx.parallelize(data, 4)
        blob = ship_dumps(rdd, ctx)
        loaded = ship_loads(blob, worker_ctx)
        assert loaded.ctx is worker_ctx
        # Slices decode lazily — they arrive as bundle views, not lists.
        assert all(not isinstance(s, list) for s in loaded._slices if s)
        restored = [kv for part in loaded._slices for kv in part]
        assert restored == data

    def test_empty_slices_survive(self, ctx, worker_ctx):
        rdd = ctx.parallelize([1], 3)  # two of three slices are empty
        loaded = ship_loads(ship_dumps(rdd, ctx), worker_ctx)
        slices = [list(s) for s in loaded._slices]
        assert len(slices) == 3
        assert sorted(sum(slices, [])) == [1]
        assert slices.count([]) == 2

    def test_bundle_form_beats_pickled_lists(self, ctx, read_pairs):
        """The point of the GPB2 path: ship traffic shrinks by the
        genomic codec's compression ratio (Table 3)."""
        rdd = ctx.parallelize(read_pairs, 2)
        shipped = len(ship_dumps(rdd, ctx))
        plain = len(pickle.dumps(read_pairs))
        assert shipped < plain

    def test_roundtrip_over_a_socket_in_small_chunks(self, ctx, worker_ctx):
        """A shipped task crossing a real socket under torn reads."""
        import threading

        data = list(range(500))
        payload = (ctx.parallelize(data, 2), lambda x: x + 1)
        blob = ship_dumps(payload, ctx)
        a, b = socket.socketpair()
        try:
            # Tiny send buffer forces many partial reads on the receiver.
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
            sender = threading.Thread(
                target=protocol.send_frame,
                args=(a, protocol.MSG_TASK, {"ns": 0}, blob),
            )
            sender.start()
            kind, header, body = protocol.recv_frame(b)
            sender.join()
        finally:
            a.close()
            b.close()
        assert kind == protocol.MSG_TASK
        rdd, func = ship_loads(body, worker_ctx)
        assert [func(x) for part in rdd._slices for x in part] == [
            x + 1 for x in data
        ]


class TestStageCut:
    """A shipped task carries its own stage only: lineage stops at each
    shuffle it reads, and no scheduler rides along."""

    @staticmethod
    def _shuffled(ctx, n):
        return ctx.parallelize([(i % 5, i) for i in range(n)], 4).reduce_by_key(
            lambda a, b: a + b
        )

    def test_shuffle_dependency_ships_without_its_map_side(self, ctx, worker_ctx):
        shuffled = self._shuffled(ctx, 40).parents[0]
        loaded = ship_loads(ship_dumps(shuffled, ctx), worker_ctx)
        assert loaded.shuffle_deps[0].parent is None
        assert loaded.parents == []
        assert shuffled.shuffle_deps[0].parent is not None  # driver keeps it

    def test_blob_does_not_grow_with_the_input_above_the_shuffle(self, ctx):
        small = ship_dumps(self._shuffled(ctx, 8), ctx)
        large = ship_dumps(self._shuffled(ctx, 4000), ctx)
        assert len(large) == len(small)

    def test_task_bodies_do_not_carry_the_scheduler(self, ctx, monkeypatch):
        bodies = []
        execute = ctx.executor.execute

        def recording_execute(body, task):
            bodies.append(body)
            return execute(body, task)

        monkeypatch.setattr(ctx.executor, "execute", recording_execute)
        self._shuffled(ctx, 40).collect()
        assert len(bodies) == 8  # 4 shuffle-map bodies, 4 result bodies

        shipped_types: set[type] = set()

        class TypeRecordingPickler(ShipPickler):
            def reducer_override(self, obj):
                shipped_types.add(type(obj))
                return super().reducer_override(obj)

        for body in bodies:
            TypeRecordingPickler(io.BytesIO(), ctx).dump(body)
        assert ShuffleDependency in shipped_types  # the walk saw the lineage
        assert DAGScheduler not in shipped_types
