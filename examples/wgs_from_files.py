#!/usr/bin/env python
"""The paper's Fig. 3 user program, end to end with real files.

Writes simulated paired-end FASTQ files to disk, then builds the pipeline
exactly the way the paper's example does — FileLoader, Bundles, Processes
added one by one, ``pipeline.run()`` — and writes a sorted VCF.

Run:  python examples/wgs_from_files.py [output_dir] [--backend serial|threads] [--workers N]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.core.bundles import (
    FASTQPairBundle,
    PartitionInfoBundle,
    SAMBundle,
    VCFBundle,
)
from repro.core.pipeline import Pipeline
from repro.core.processes import (
    BaseRecalibrationProcess,
    BwaMemProcess,
    FileLoader,
    HaplotypeCallerProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
)
from repro.core.processes.io import WriteVcfProcess
from repro.engine import EngineConfig, GPFContext
from repro.formats.fastq import write_fastq
from repro.formats.vcf import read_vcf
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", default=None)
    parser.add_argument(
        "--backend",
        choices=["serial", "threads"],
        default="serial",
        help="executor backend for the engine's task pools",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="worker count for threads"
    )
    parser.add_argument(
        "--malformed",
        choices=["fail", "drop", "quarantine"],
        default="fail",
        help="bad-input policy for the FASTQ loader",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="run-journal directory; re-running resumes after completed Processes",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt task deadline in seconds",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="tracing directory: writes events.jsonl and a Chrome trace.json",
    )
    args = parser.parse_args()
    workdir = Path(args.output_dir) if args.output_dir else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)

    # --- make input files (stand-ins for the sequencer's FASTQ) ---------
    reference = generate_reference([20_000], seed=21)
    truth = plant_variants(reference, seed=22)
    known_sites = generate_known_sites(truth, reference, seed=23)
    pairs = ReadSimulator(truth.donor, ReadSimConfig(coverage=8.0, seed=24)).simulate()
    fastq1 = str(workdir / "sample_1.fastq")
    fastq2 = str(workdir / "sample_2.fastq")
    write_fastq([p.read1 for p in pairs], fastq1)
    write_fastq([p.read2 for p in pairs], fastq2)
    print(f"wrote {len(pairs)} read pairs to {fastq1} / {fastq2}")

    # --- the Fig. 3 program, line for line ------------------------------
    # Set up environment for Process and Resource
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=4,
            serializer="gpf",
            executor_backend=args.backend,
            num_workers=args.workers,
            task_timeout=args.task_timeout,
            trace_dir=args.trace_out,
        )
    )
    pipeline = Pipeline("myPipeline", ctx)

    # Load pair-end FASTQ to RDD
    fastq_pair_rdd = FileLoader.load_fastq_pair_to_rdd(
        ctx, fastq1, fastq2, malformed=args.malformed
    )
    fastq_pair_bundle = FASTQPairBundle.defined("fastqPair", fastq_pair_rdd)

    # Add Aligner Process into the Pipeline
    aligned_sam_bundle = SAMBundle.undefined("alignedSam")
    pipeline.add_process(
        BwaMemProcess.pair_end(
            "MyBwaMapping", reference, fastq_pair_bundle, aligned_sam_bundle
        )
    )

    # Add Cleaner Processes into the Pipeline
    deduped_sam_bundle = SAMBundle.undefined("dedupedSam")
    pipeline.add_process(
        MarkDuplicateProcess("MyMarkDuplicate", aligned_sam_bundle, deduped_sam_bundle)
    )

    repartition_info_bundle = PartitionInfoBundle.undefined("partitionInfo")
    pipeline.add_process(
        ReadRepartitioner(
            "MyRepartitioner",
            [deduped_sam_bundle],
            repartition_info_bundle,
            reference.contig_lengths(),
            advised_partition_length=5_000,
        )
    )

    rod_map = {"dbsnp": known_sites}
    realigned_bundle = SAMBundle.undefined("realignedSam")
    pipeline.add_process(
        IndelRealignProcess(
            "MyIndelRealign",
            reference,
            rod_map,
            repartition_info_bundle,
            [deduped_sam_bundle],
            [realigned_bundle],
        )
    )

    recaled_sam_bundle = SAMBundle.undefined("recaledSam")
    pipeline.add_process(
        BaseRecalibrationProcess(
            "MyBQSR",
            reference,
            rod_map,
            repartition_info_bundle,
            [realigned_bundle],
            [recaled_sam_bundle],
        )
    )

    # Add Caller Process into the Pipeline
    vcf_bundle = VCFBundle.undefined("ResultVCF")
    use_gvcf = False
    pipeline.add_process(
        HaplotypeCallerProcess(
            "MyHaplotypeCaller",
            reference,
            rod_map,
            repartition_info_bundle,
            [recaled_sam_bundle],
            vcf_bundle,
            use_gvcf,
        )
    )

    vcf_path = str(workdir / "result.vcf")
    pipeline.add_process(WriteVcfProcess("WriteVCF", vcf_bundle, vcf_path))

    # Issue and Execute Processes
    pipeline.run(journal_dir=args.journal_dir)

    _, calls = read_vcf(vcf_path)
    truth_keys = truth.truth_keys()
    tp = sum(1 for c in calls if c.key() in truth_keys)
    print(f"\nVCF written to {vcf_path}")
    print(f"   {len(calls)} variants called, {tp}/{len(truth_keys)} truth recovered")
    print(f"   executed: {[p.name for p in pipeline.executed]}")
    if pipeline.skipped:
        print(f"   resumed from journal; skipped: {[p.name for p in pipeline.skipped]}")
    if ctx.quarantine.total:
        print(f"   {ctx.quarantine.summary()}")
    ctx.stop()
    if args.trace_out:
        print(f"   trace written under {args.trace_out} (see `gpf report`)")


if __name__ == "__main__":
    main()
