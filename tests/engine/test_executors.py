"""Local executor backends, failure cancellation, and stable hashing."""

import os
import subprocess
import sys
import time
from functools import partial

import pytest

from repro.engine.context import EngineConfig, GPFContext
from repro.engine.executors import ThreadExecutor
from repro.engine.rdd import HashPartitioner, stable_hash


def _square(x):
    return x * x


class TestThreadExecutorCancellation:
    def test_failure_cancels_not_yet_started_tasks(self):
        """Regression: a failing task must stop the batch, not let every
        queued task run to completion behind the raised exception."""
        ex = ThreadExecutor(1)
        ran: list[int] = []

        def fail():
            raise RuntimeError("early failure")

        def slow_record(i):
            time.sleep(0.05)
            ran.append(i)

        tasks = [fail] + [partial(slow_record, i) for i in range(9)]
        try:
            with pytest.raises(RuntimeError, match="early failure"):
                ex.run_all(tasks)
        finally:
            ex.shutdown()
        # With one worker, at most the single task the worker grabbed
        # between the failure and the cancellation sweep may have run.
        assert len(ran) <= 1

    def test_successful_batches_unaffected(self):
        ex = ThreadExecutor(4)
        try:
            assert ex.run_all([partial(_square, i) for i in range(20)]) == [
                i * i for i in range(20)
            ]
        finally:
            ex.shutdown()


class TestStableHash:
    def test_equal_numerics_bucket_together(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)

    def test_distinct_keys_are_distinguished(self):
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(("a", 1)) != stable_hash(("a", "1"))
        assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))

    def test_tuple_and_list_keys_supported(self):
        assert stable_hash(("chr1", 1000)) == stable_hash(["chr1", 1000])
        part = HashPartitioner(8)
        assert 0 <= part(("chr1", 1000)) < 8

    def test_stable_across_interpreters(self):
        """The property builtin hash() lacks: the same key buckets the same
        way in a freshly spawned interpreter (different hash salt)."""
        keys = ["chr7", ("chr2", 1234), 99, None, b"raw"]
        local = [stable_hash(k) for k in keys]
        code = (
            "from repro.engine.rdd import stable_hash\n"
            "print([stable_hash(k) for k in "
            "['chr7', ('chr2', 1234), 99, None, b'raw']])"
        )
        remote = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(
                    os.path.dirname(os.path.dirname(
                        os.path.dirname(os.path.abspath(__file__)))),
                    "src",
                ),
                "PYTHONHASHSEED": "12345",
            },
        )
        assert eval(remote.stdout.strip()) == local

    def test_partitioner_equality_semantics_kept(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)


class TestSerialAndThreadsStillWork:
    def test_all_backends_agree_on_a_shuffle(self):
        results = {}
        for backend in ("serial", "threads"):
            with GPFContext(
                EngineConfig(executor_backend=backend, num_workers=2)
            ) as ctx:
                rdd = ctx.parallelize([(i % 5, i) for i in range(100)], 4)
                grouped = sorted(
                    (k, sorted(v)) for k, v in rdd.group_by_key().collect()
                )
                results[backend] = grouped
        assert results["serial"] == results["threads"]
