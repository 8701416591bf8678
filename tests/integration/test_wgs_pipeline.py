"""Full-pipeline integration tests: the paper's Fig. 3 user program."""

import pytest

from repro.core.optimizer import FusedPartitionChain
from repro.engine.context import EngineConfig, GPFContext
from repro.wgs import build_wgs_pipeline


@pytest.fixture(scope="module")
def pipeline_inputs(reference, truth, known_sites, read_pairs):
    return reference, truth, known_sites, read_pairs


#: Pipeline runs are expensive (full alignment + calling); memoize them per
#: configuration for the whole module.
_RUN_CACHE: dict = {}


def run_pipeline(inputs, tmp_path, optimize=True, serializer="gpf", backend="serial"):
    key = (optimize, serializer, backend)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    result = _run_pipeline_uncached(inputs, tmp_path, optimize, serializer, backend)
    _RUN_CACHE[key] = result
    return result


def _run_pipeline_uncached(inputs, tmp_path, optimize, serializer, backend):
    reference, truth, known_sites, pairs = inputs
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=3,
            serializer=serializer,
            executor_backend=backend,
            num_workers=4,
            spill_dir=str(tmp_path / f"spill_{optimize}_{serializer}_{backend}"),
        )
    )
    handles = build_wgs_pipeline(
        ctx,
        reference,
        ctx.parallelize(pairs, 3),
        known_sites,
        partition_length=4_000,
    )
    handles.pipeline.run(optimize=optimize)
    calls = handles.vcf.rdd.collect()
    job = ctx.metrics.job()
    ctx.stop()
    return handles, calls, job


class TestEndToEnd:
    def test_finds_planted_variants(self, pipeline_inputs, tmp_path):
        reference, truth, _, _ = pipeline_inputs
        _, calls, _ = run_pipeline(pipeline_inputs, tmp_path)
        truth_keys = truth.truth_keys()
        called_keys = {c.key() for c in calls}
        # At the fixture's ~6x genome-wide coverage, recall should be
        # solid; require at least a third of all planted variants.
        assert len(truth_keys & called_keys) >= len(truth_keys) // 3
        # Precision: the caller must not hallucinate wildly.
        assert len(called_keys - truth_keys) <= 2 * len(called_keys & truth_keys) + 5

    def test_optimizer_fuses_cleaner_caller_chain(self, pipeline_inputs, tmp_path):
        handles, _, _ = run_pipeline(pipeline_inputs, tmp_path)
        fused = [p for p in handles.pipeline.executed if isinstance(p, FusedPartitionChain)]
        assert len(fused) == 1
        assert "IndelRealign" in fused[0].name
        assert "HaplotypeCaller" in fused[0].name

    def test_optimization_preserves_output(self, pipeline_inputs, tmp_path):
        _, calls_opt, job_opt = run_pipeline(pipeline_inputs, tmp_path, optimize=True)
        _, calls_raw, job_raw = run_pipeline(pipeline_inputs, tmp_path, optimize=False)
        assert sorted(c.key() for c in calls_opt) == sorted(c.key() for c in calls_raw)
        # Table 4's shape: fewer stages and less shuffle data when fused.
        assert job_opt.stage_count < job_raw.stage_count
        assert job_opt.shuffle_bytes < job_raw.shuffle_bytes

    def test_serializers_agree(self, pipeline_inputs, tmp_path):
        results = {}
        for serializer in ("gpf", "compact"):
            _, calls, job = run_pipeline(
                pipeline_inputs, tmp_path, serializer=serializer
            )
            results[serializer] = (sorted(c.key() for c in calls), job.shuffle_bytes)
        assert results["gpf"][0] == results["compact"][0]
        # The genomic codec must shuffle fewer bytes (Table 3).
        assert results["gpf"][1] < results["compact"][1]

    def test_threads_backend_agrees_with_serial(self, pipeline_inputs, tmp_path):
        _, serial_calls, _ = run_pipeline(pipeline_inputs, tmp_path, backend="serial")
        _, thread_calls, _ = run_pipeline(pipeline_inputs, tmp_path, backend="threads")
        assert sorted(c.key() for c in serial_calls) == sorted(
            c.key() for c in thread_calls
        )

    def test_gpf_agrees_with_disk_pipeline_baseline(
        self, pipeline_inputs, tmp_path
    ):
        """GPF and the conventional disk pipeline call the same variants."""
        from repro.baselines.diskpipeline import DiskPipeline
        from repro.formats.fastq import write_fastq
        from repro.formats.vcf import read_vcf

        reference, truth, known_sites, pairs = pipeline_inputs
        fq1, fq2 = str(tmp_path / "m1.fastq"), str(tmp_path / "m2.fastq")
        write_fastq([p.read1 for p in pairs], fq1)
        write_fastq([p.read2 for p in pairs], fq2)
        disk = DiskPipeline(reference, known_sites, workdir=str(tmp_path / "disk"))
        disk_result = disk.run(fq1, fq2)
        _, disk_calls = read_vcf(disk_result.vcf_path)

        _, gpf_calls, _ = run_pipeline(pipeline_inputs, tmp_path)
        gpf_keys = {c.key() for c in gpf_calls}
        disk_keys = {c.key() for c in disk_calls}
        # The pipelines differ in partitioning and stage order, so exact
        # equality is not guaranteed at region boundaries; a large common
        # core is.
        common = gpf_keys & disk_keys
        assert len(common) >= 0.7 * min(len(gpf_keys), len(disk_keys))
