"""Resilience tests: task retry, lineage recomputation, fault injection.

Faults come from the chaos plane's ``task.attempt`` site.  On the serial
backend attempts hit the site in submission order (a retry runs before
the next partition's first attempt), so an ``nth`` rule kills one
planned (partition, attempt) pair.
"""

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import InjectedFault, TaskFailedError


def die(**trigger) -> ChaosRule:
    return ChaosRule("task.attempt", "die", **trigger)


def chaos_ctx(tmp_path, rules, seed=0, **config) -> GPFContext:
    config.setdefault("default_parallelism", 3)
    return GPFContext(
        EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            chaos=ChaosPlan(seed=seed, rules=rules),
            **config,
        )
    )


def killed(ctx) -> list[tuple[int, int]]:
    """The (partition, attempt) pairs the chaos plane killed, in order."""
    return [(e["partition"], e["attempt"]) for e in ctx.chaos.log]


class TestFaultPlan:
    def test_planned_attempt_killed(self):
        injector = ChaosInjector(ChaosPlan(rules=[die(nth=1)]))
        with pytest.raises(InjectedFault):
            injector.hit("task.attempt", stage_kind="result", partition=0, attempt=0)
        injector.hit("task.attempt", stage_kind="result", partition=0, attempt=1)
        injector.hit("task.attempt", stage_kind="result", partition=1, attempt=0)
        assert injector.log == [
            {
                "site": "task.attempt",
                "fault": "die",
                "hit": 1,
                "rule": 0,
                "stage_kind": "result",
                "partition": 0,
                "attempt": 0,
            }
        ]

    def test_max_failures_cap(self):
        injector = ChaosInjector(
            ChaosPlan(rules=[die(probability=1.0, max_faults=2)])
        )
        dead = 0
        for i in range(10):
            try:
                injector.hit("task.attempt", stage_kind="result", partition=i, attempt=0)
            except InjectedFault:
                dead += 1
        assert dead == 2
        assert injector.injected == 2


class TestRetry:
    def test_single_failure_recovers(self, tmp_path):
        # Hits: p0a0, p1a0 (killed), p1a1, p2a0.
        with chaos_ctx(tmp_path, [die(nth=2)]) as ctx:
            data = list(range(30))
            assert ctx.parallelize(data, 3).map(lambda x: x * 2).collect() == [
                x * 2 for x in data
            ]
            assert killed(ctx) == [(1, 0)]

    def test_retry_recomputes_from_lineage(self, ctx):
        """The retried attempt re-runs the map function (recompute from
        lineage, not replay of stale state): a failure *after* part of the
        partition was computed forces those elements through again."""
        calls: list[int] = []
        failed_once = []

        def flaky(x):
            calls.append(x)
            if x == 2 and not failed_once:
                failed_once.append(True)
                raise RuntimeError("transient worker death")
            return x

        rdd = ctx.parallelize([1, 2, 3, 4], 2).map(flaky)
        assert rdd.collect() == [1, 2, 3, 4]
        # Partition 0 = [1, 2]: attempt 0 computed 1 then died at 2; the
        # retry recomputed both. Partition 1 ran once.
        assert sorted(calls) == [1, 1, 2, 2, 3, 4]

    def test_shuffle_map_retry(self, tmp_path):
        # Map hits: p0a0 (killed), p0a1, p1a0, p2a0 (killed), p2a1
        # (killed), p2a2.
        rules = [die(nth=1), die(nth=4), die(nth=5)]
        with chaos_ctx(tmp_path, rules) as ctx:
            rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
            out = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
            assert out == {0: 10, 1: 10, 2: 10}
            assert killed(ctx) == [(0, 0), (2, 0), (2, 1)]

    def test_budget_exhausted_raises(self, tmp_path):
        with chaos_ctx(tmp_path, [die(every=1)], max_task_attempts=2) as ctx:
            with pytest.raises(TaskFailedError) as excinfo:
                ctx.parallelize([1], 1).collect()
            assert isinstance(excinfo.value.cause, InjectedFault)
            assert killed(ctx) == [(0, 0), (0, 1)]

    def test_failed_attempts_not_counted_in_metrics(self, tmp_path):
        with chaos_ctx(tmp_path, [die(nth=1)]) as ctx:
            ctx.parallelize([1, 2], 2).collect()
            job = ctx.metrics.job()
        # Only successful attempts are recorded; partition 0's survivor
        # carries attempt index 1.
        tasks = [t for s in job.stages for t in s.tasks]
        assert len(tasks) == 2
        assert {t.attempt for t in tasks} == {0, 1}

    def test_random_faults_full_pipeline_still_correct(self, tmp_path):
        rules = [die(probability=0.25)]
        with chaos_ctx(
            tmp_path, rules, seed=11, max_task_attempts=6, default_parallelism=4
        ) as ctx:
            rdd = ctx.parallelize(range(200), 8)
            out = dict(
                rdd.key_by(lambda x: x % 7)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            assert ctx.chaos.injected > 0
        expected: dict = {}
        for x in range(200):
            expected[x % 7] = expected.get(x % 7, 0) + x
        assert out == expected

    def test_pipeline_survives_faults(self, tmp_path, reference, known_sites, read_pairs):
        """The whole WGS pipeline completes under random task failures
        and calls exactly what a fault-free run calls."""
        from repro.wgs import build_wgs_pipeline

        def call_keys(ctx) -> list:
            handles = build_wgs_pipeline(
                ctx,
                reference,
                ctx.parallelize(read_pairs[:60], 3),
                known_sites,
                partition_length=4_000,
            )
            handles.pipeline.run()
            return sorted(c.key() for c in handles.vcf.rdd.collect())

        with chaos_ctx(tmp_path / "clean", []) as ctx:
            expected = call_keys(ctx)
        rules = [die(probability=0.1, max_faults=10)]
        with chaos_ctx(tmp_path, rules, seed=5, max_task_attempts=6) as ctx:
            assert call_keys(ctx) == expected
            injected = ctx.chaos.injected
            ledger = len(ctx.metrics.failures)
        assert 0 < injected <= 10  # faults fired, bounded by max_faults
        assert ledger == injected
