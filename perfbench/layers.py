"""Where the benchmark probes the program, and how probes become metrics.

Layers are named after ``src/repro`` modules.  Every probe wraps a public
function or method (see :mod:`spans`); the span names below are the keys
the per-layer metrics are built from.  ``PER_LAYER`` lists every per-layer
metric with its unit; a workload that does not exercise a layer reports 0
for it, so ``dist.*`` reads 0 on the single-process workloads and
``serve.*`` reads 0 outside ``serve_jobs``.
"""

from __future__ import annotations

import statistics

from spans import Probe, self_time_by_name, union_length

UNMAPPED_FLAG = 0x4


def _count_pairs(rec, args, kwargs, result, seconds):
    records = [r for pair in result for r in pair]
    rec.count("align.reads", len(records))
    rec.count("align.mapped", sum(1 for r in records if not r.flag & UNMAPPED_FLAG))


def _count_markdup(rec, args, kwargs, result, seconds):
    rec.count("cleaner.records", len(result[0]))


def _count_region(rec, args, kwargs, result, seconds):
    rec.count("caller.regions")


def _count_cache(rec, args, kwargs, result, seconds):
    rec.count("caller.lik_cache_misses" if result is None else "caller.lik_cache_hits")


def _count_partitions(rec, args, kwargs, result, seconds):
    """Records per final partition of the ReadRepartitioner's split."""
    read_counts, threshold = args[1], args[2]
    sizes = []
    for count in read_counts.values():
        pieces = -(-count // threshold) if count > threshold else 1
        sizes.extend([count / pieces] * pieces)
    occupied = [s for s in sizes if s > 0]
    rec.count("core.jobs")
    rec.count("core.partitions", result.num_partitions)
    if occupied:
        rec.count("core.partition_skew", max(occupied) / statistics.fmean(occupied))


def _count_ship(rec, args, kwargs, result, seconds):
    """Driver-side wait of one shipped task: round trip minus remote run."""
    remote_task = result[0]
    run_time = getattr(remote_task, "run_time", 0.0) or 0.0
    if getattr(remote_task, "worker", ""):
        rec.count("dist.wait_s", max(0.0, seconds - run_time))


PROBES = [
    Probe("repro.align.pairing:PairedEndAligner.align_pairs", "align.pairs", _count_pairs),
    Probe("repro.align.pairing:PairedEndAligner.__init__", "align.index_build"),
    Probe("repro.align.bwamem:find_seeds", "align.seed"),
    Probe("repro.align.bwamem:smith_waterman_batch", "align.extend"),
    Probe("repro.core.processes.cleaner:mark_duplicates", "cleaner.markdup", _count_markdup),
    Probe("repro.core.processes.cleaner:find_realignment_intervals", "cleaner.realign"),
    Probe("repro.core.processes.cleaner:realign_reads", "cleaner.realign"),
    Probe("repro.core.processes.cleaner:build_recalibration_table", "cleaner.bqsr_table"),
    Probe("repro.core.processes.cleaner:apply_recalibration", "cleaner.bqsr_apply"),
    Probe("repro.caller.haplotype_caller:HaplotypeCaller.call", "caller.call"),
    Probe("repro.caller.haplotype_caller:HaplotypeCaller.call_region", None, _count_region),
    Probe("repro.caller.pairhmm:PairHMM.batch_log_likelihoods", "caller.pairhmm"),
    Probe("repro.caller.likelihood_cache:LikelihoodCache.get", None, _count_cache),
    Probe("repro.compression.records:FastqCodec.encode", "compression.encode"),
    Probe("repro.compression.records:SamCodec.encode", "compression.encode"),
    Probe("repro.compression.records:FastqCodec.decode", "compression.decode"),
    Probe("repro.compression.records:SamCodec.decode", "compression.decode"),
    Probe("repro.compression.records:FastqCodec.iter_decode", "compression.decode"),
    Probe("repro.compression.records:SamCodec.iter_decode", "compression.decode"),
    Probe("repro.engine.shuffle:ShuffleManager.write", "engine.shuffle"),
    Probe("repro.engine.shuffle:ShuffleManager.read", "engine.shuffle"),
    Probe("repro.dist.worker:DistShuffle.write", "engine.shuffle"),
    Probe("repro.dist.worker:DistShuffle.read", "engine.shuffle"),
    Probe("repro.core.partitioning:PartitionInfo.with_splits", None, _count_partitions),
    Probe("repro.dist.cluster:ClusterExecutor.execute", "dist.execute", _count_ship),
    Probe("repro.formats.fasta:read_fasta", "formats.read"),
    Probe("repro.formats.vcf:read_vcf", "formats.read"),
    Probe("repro.engine.files:_count_fastq_records", "formats.read"),
    Probe("repro.engine.files:_record_offsets", "formats.read"),
    Probe("repro.engine.files:_read_records", "formats.read"),
    Probe("repro.formats.vcf:write_vcf", "formats.write"),
    Probe(
        "repro.serve.service:PipelineService._run_job",
        "serve.job",
        job=lambda args: args[3].id,
    ),
]

#: Span names whose self time is reported, keyed by metric name.
SELF_TIME_METRICS = {
    "align.self_s": "align.pairs",
    "align.seed_s": "align.seed",
    "align.extend_s": "align.extend",
    "align.index_build_s": "align.index_build",
    "cleaner.markdup_s": "cleaner.markdup",
    "cleaner.realign_s": "cleaner.realign",
    "cleaner.bqsr_table_s": "cleaner.bqsr_table",
    "cleaner.bqsr_apply_s": "cleaner.bqsr_apply",
    "caller.self_s": "caller.call",
    "caller.pairhmm_s": "caller.pairhmm",
    "compression.encode_s": "compression.encode",
    "compression.decode_s": "compression.decode",
    "engine.shuffle_s": "engine.shuffle",
    "formats.read_s": "formats.read",
    "formats.write_s": "formats.write",
}

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "align.self_s": ("s", "lower"),
    "align.seed_s": ("s", "lower"),
    "align.extend_s": ("s", "lower"),
    "align.reads": ("count", "higher"),
    "align.mapped_frac": ("ratio", "higher"),
    "align.index_build_s": ("s", "lower"),
    "cleaner.markdup_s": ("s", "lower"),
    "cleaner.realign_s": ("s", "lower"),
    "cleaner.bqsr_table_s": ("s", "lower"),
    "cleaner.bqsr_apply_s": ("s", "lower"),
    "cleaner.records": ("count", "higher"),
    "caller.self_s": ("s", "lower"),
    "caller.pairhmm_s": ("s", "lower"),
    "caller.regions": ("count", "higher"),
    "caller.lik_cache_hit_frac": ("ratio", "higher"),
    "compression.encode_s": ("s", "lower"),
    "compression.decode_s": ("s", "lower"),
    "compression.ratio": ("ratio", "higher"),
    "engine.tasks": ("count", "lower"),
    "engine.task_retries": ("count", "lower"),
    "engine.fallbacks": ("count", "lower"),
    "engine.shuffle_bytes": ("B", "lower"),
    "engine.shuffle_s": ("s", "lower"),
    "engine.block_hit_frac": ("ratio", "higher"),
    "engine.residual_s": ("s", "lower"),
    "core.partitions": ("count", "higher"),
    "core.partition_skew": ("ratio", "lower"),
    "dist.tasks_shipped": ("count", "lower"),
    "dist.bytes_shipped": ("B", "lower"),
    "dist.ship_growth": ("ratio", "lower"),
    "dist.bytes_returned": ("B", "lower"),
    "dist.fetch_bytes": ("B", "lower"),
    "dist.wait_s": ("s", "lower"),
    "dist.workers_lost": ("count", "lower"),
    "serve.queue_s": ("s", "lower"),
    "serve.run_s": ("s", "lower"),
    "serve.overhead_s": ("s", "lower"),
    "serve.submit_s": ("s", "lower"),
    "serve.refused": ("count", "lower"),
    "formats.read_s": ("s", "lower"),
    "formats.write_s": ("s", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
    "loadgen.late_p90_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, counts, jobs: int) -> dict[str, float]:
    """Per-job self times and probe counts of the traced phase."""
    jobs = max(1, jobs)
    own = self_time_by_name(spans)
    out = {metric: own.get(name, 0.0) / jobs for metric, name in SELF_TIME_METRICS.items()}
    out["align.reads"] = counts.get("align.reads", 0) / jobs
    out["align.mapped_frac"] = _ratio(counts.get("align.mapped", 0), counts.get("align.reads", 0))
    out["cleaner.records"] = counts.get("cleaner.records", 0) / jobs
    out["caller.regions"] = counts.get("caller.regions", 0) / jobs
    hits = counts.get("caller.lik_cache_hits", 0)
    out["caller.lik_cache_hit_frac"] = _ratio(hits, hits + counts.get("caller.lik_cache_misses", 0))
    splits = counts.get("core.jobs", 0)
    out["core.partitions"] = _ratio(counts.get("core.partitions", 0), splits)
    out["core.partition_skew"] = _ratio(counts.get("core.partition_skew", 0), splits)
    out["dist.wait_s"] = counts.get("dist.wait_s", 0.0) / jobs
    return out


def residual_s(spans, job_windows) -> float:
    """Time inside the (start, end) job windows that no span covers."""
    return sum(
        (end - start) - union_length([(s.start, s.end) for s in spans], start, end)
        for start, end in job_windows
    )


def telemetry_metrics(snapshots: list[dict]) -> dict[str, float]:
    """Per-job engine and dist numbers from the program's own telemetry.

    ``snapshots`` holds one ``GPFContext.telemetry_snapshot()`` per job.
    """
    jobs = max(1, len(snapshots))

    def total(name: str) -> float:
        return sum(s["counters"].get(name, 0) for s in snapshots)

    tasks = sum(
        s["histograms"].get("task.seconds", {}).get("count", 0) for s in snapshots
    )
    ratios = [
        s["gauges"]["blockmanager.compression_ratio"]
        for s in snapshots
        if s["gauges"].get("blockmanager.compression_ratio")
    ]
    hits, misses = total("block.hits"), total("block.misses")
    shipped = [s["counters"].get("dist.bytes_shipped", 0) for s in snapshots]
    return {
        "engine.tasks": tasks / jobs,
        "engine.task_retries": total("task.failures") / jobs,
        "engine.fallbacks": total("executor.fallbacks") / jobs,
        "engine.shuffle_bytes": total("shuffle.bytes_written") / jobs,
        "engine.block_hit_frac": _ratio(hits, hits + misses),
        "compression.ratio": statistics.median(ratios) if ratios else 0.0,
        "dist.tasks_shipped": total("dist.tasks_shipped") / jobs,
        "dist.bytes_shipped": total("dist.bytes_shipped") / jobs,
        "dist.ship_growth": _ratio(shipped[-1], shipped[0]) if shipped else 0.0,
        "dist.bytes_returned": total("dist.bytes_returned") / jobs,
        "dist.fetch_bytes": total("dist.fetch_bytes") / jobs,
        "dist.workers_lost": total("dist.workers_lost") / jobs,
    }
