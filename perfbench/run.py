"""The repository benchmark: WGS throughput, warm-fleet reuse, served jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated with ``repro.sim``: the donor genome is fixed and
``--seed`` draws the reads.  ``README.md`` beside this file says why each
workload and metric was chosen.  Workloads:

- ``wgs_serial``: one paired-end WGS job (FASTQ pairs in memory -> VCF)
  per fresh ``serial`` context, repeated.  Alignment, cleaning and
  calling do nearly all the work; kernel changes show here first.
- ``wgs_cluster``: back-to-back WGS jobs on ONE warm cluster context over
  two loopback ``gpf worker`` processes with one slot each, with
  ``reset_for_reuse`` between jobs (the ``gpf serve --backend cluster``
  pattern).  The only workload where ``dist`` ships tasks.
- ``serve_jobs``: an open-loop stream of small WGS jobs submitted over
  HTTP to a ``gpf serve`` process with two worker threads.  Per-job fixed
  costs (index build, file parsing, job-log fsyncs) dominate.

With ``--trace 0`` the end-to-end metrics are measured with no probe
installed.  With ``--trace 1`` the run first measures half the time
untraced, then half traced with the probes of :mod:`layers` (in the
benchmark process and, through :mod:`launch`, in every program process),
and prints the per-layer metrics.  Each run checks every job's VCF
against the ``serial`` backend's output for the same inputs (computed
during set-up) and exits 1 on any mismatch.  The last stdout line is the
JSON result; the lines before it are a table for people and the
environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

# -- inputs (fixed sizes; --seed varies the sequencing, not the donor) ----------
#: The donor genome (reference, planted truth, known sites) and the
#: gene-panel design are fixed, like one reference sample sequenced again
#: and again; --seed draws the reads.  With a donor per seed, job work and
#: call accuracy swung with the number and kind of planted variants.
GENOME_SEED = 0
CONTIGS = (6_000, 3_000)
#: Coverage hotspot on the first contig, so ReadRepartitioner has a
#: skewed partition to split.
HOTSPOT = (2_000, 4_000, 4.0)
PARTITIONS = 4
PARTITION_LENGTH = 2_000
#: Read pairs of one wgs_serial / wgs_cluster job (the same pairs for both).
WGS_PAIRS = 300
CLUSTER_WORKERS = 2
#: Back-to-back jobs per --seconds on the warm fleet.  A fixed count, not
#: "until time is up": jobs grow slower on one warm context, so a
#: time-bounded loop would make the job count, and the medians over it,
#: jump between seeds.
CLUSTER_JOB_SECONDS = 6.5
#: Served jobs are gene-panel runs: one capture target per job, read at
#: SERVE_COVERAGE on target, called over a small job configuration.
SERVE_TARGET = 400
SERVE_COVERAGE = 8.0
SERVE_PARTITIONS = 2
SERVE_PARTITION_LENGTH = 5_000
SERVE_WORKERS = 2
#: Offered load of serve_jobs (jobs per second), fixed for every commit:
#: about two-thirds of the parent commit's saturation throughput.  Jobs
#: arrive evenly spaced: with seeded Poisson arrivals the queueing of a
#: 13-job run amplified the host's speed drift into a p50 latency spread
#: of about 0.25 between runs.
SERVE_RATE = 0.65
SETUP_REPEATS = 5
#: Bound on waiting for any one subprocess or for the served backlog.
WAIT_S = 60.0

END_TO_END = {
    "pairs_per_s": "1/s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "call_f1": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output)."""


# -- inputs ---------------------------------------------------------------------
@dataclass
class Genome:
    reference: object
    truth: object
    known: list


def make_genome() -> Genome:
    from repro.sim import generate_known_sites, generate_reference, plant_variants

    reference = generate_reference(list(CONTIGS), seed=GENOME_SEED + 1)
    truth = plant_variants(
        reference, snp_rate=0.008, indel_rate=0.0008, seed=GENOME_SEED + 2
    )
    known = generate_known_sites(truth, reference, seed=GENOME_SEED + 3)
    return Genome(reference, truth, known)


def make_pairs(genome: Genome, count: int, seed: int) -> list:
    """``count`` read pairs drawn at 8x mean coverage plus the hotspot."""
    from repro.sim import ReadSimConfig, ReadSimulator
    from repro.sim.reads import Hotspot

    start, end, multiplier = HOTSPOT
    hotspot = Hotspot(genome.reference.contig_names[0], start, end, multiplier)
    pairs = ReadSimulator(
        genome.truth.donor,
        ReadSimConfig(coverage=8.0, seed=seed, hotspots=[hotspot]),
    ).simulate()
    if len(pairs) < count:
        raise BenchError(f"simulated {len(pairs)} read pairs, need {count}")
    return pairs[:count]


# -- measurement helpers -----------------------------------------------------------
def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Score:
    """Pooled call accuracy against the planted truth."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, calls: list, genome: Genome, window: tuple | None = None) -> None:
        """Score ``calls``; with a (contig, start, end) window, only inside it."""
        from repro.caller.evaluation import evaluate_calls

        truth = genome.truth.records
        if window is not None:
            contig, start, end = window

            def inside(rec) -> bool:
                return rec.contig == contig and start <= rec.pos < end

            calls = [c for c in calls if inside(c)]
            truth = [t for t in truth if inside(t)]
        overall = evaluate_calls(calls, truth).overall
        self.tp += overall.tp
        self.fp += overall.fp
        self.fn += overall.fn

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


@dataclass
class Phase:
    """What one measured stretch of a workload produced."""

    walls: list = field(default_factory=list)  # per-job latency or wall, s
    pairs: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    score: Score = field(default_factory=Score)
    rss_mib: float = 0.0
    snapshots: list = field(default_factory=list)  # per-job telemetry
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    windows: list = field(default_factory=list)  # job (start, end), this process
    extra: dict = field(default_factory=dict)  # workload-specific per-layer


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


def launch(workdir: str, gpf_args: list[str], spans: str | None = None, **popen) -> subprocess.Popen:
    """Start ``gpf <gpf_args>`` (or the start-up probe when ``gpf_args`` is None)."""
    cmd = [sys.executable, os.path.join(HERE, "launch.py")]
    if gpf_args is None:
        cmd.append("--ready")
    else:
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--"] + gpf_args
    return subprocess.Popen(cmd, env=child_env(workdir), cwd=ROOT, **popen)


def stop_process(proc: subprocess.Popen, terminate: bool = True) -> None:
    if proc.poll() is None and terminate:
        proc.terminate()
    try:
        proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=WAIT_S)


class Tracing:
    """Probes installed in this process for the duration of a block."""

    def __init__(self, enabled: bool):
        self.recorder = None
        self._undo = []
        if enabled:
            from layers import PROBES
            from spans import SpanRecorder, install

            self.recorder = SpanRecorder()
            self._undo = install(self.recorder, PROBES)

    def close(self) -> None:
        from spans import uninstall

        uninstall(self._undo)
        self._undo = []

    def job(self, name: str | None) -> None:
        if self.recorder is not None:
            self.recorder.job = name


# -- the in-process WGS job -----------------------------------------------------------
def run_wgs(
    ctx,
    genome: Genome,
    pairs: list,
    out_path: str,
    partitions: int = PARTITIONS,
    partition_length: int = PARTITION_LENGTH,
) -> list:
    """FASTQ pairs -> sorted VCF file; returns the calls."""
    from repro.formats.vcf import sort_records, write_vcf
    from repro.wgs import build_wgs_pipeline

    handles = build_wgs_pipeline(
        ctx,
        genome.reference,
        ctx.parallelize(pairs, partitions),
        genome.known,
        partition_length=partition_length,
    )
    handles.pipeline.run()
    calls = handles.vcf.rdd.collect()
    write_vcf(
        handles.vcf.header,
        sort_records(calls, genome.reference.contig_names),
        out_path,
    )
    return calls


def serial_context(workdir: str, tag: str):
    from repro.engine.context import EngineConfig, GPFContext

    return GPFContext(
        EngineConfig(
            executor_backend="serial",
            default_parallelism=PARTITIONS,
            spill_dir=os.path.join(workdir, f"spill-{tag}"),
        )
    )


def expected_digest(workdir: str, genome: Genome, pairs: list, tag: str, **layout) -> str:
    """The serial backend's VCF for these inputs (set-up, untimed)."""
    ctx = serial_context(workdir, f"ref-{tag}")
    try:
        path = os.path.join(workdir, f"expected-{tag}.vcf")
        run_wgs(ctx, genome, pairs, path, **layout)
        return digest(path)
    finally:
        ctx.stop()


def check_job(phase: Phase, path: str, expected: str, calls: list, genome: Genome) -> None:
    phase.attempted += 1
    if digest(path) != expected:
        phase.mismatched += 1
        phase.failed += 1
        return
    phase.score.add(calls, genome)


# -- wgs_serial -----------------------------------------------------------------------
def serial_setup_s(workdir: str) -> list[float]:
    """Interpreter start + import of repro + serial context, in a child."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = launch(workdir, None, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - started)
        stop_process(proc, terminate=False)
        proc.stdout.close()
        if line.strip() != "READY":
            raise BenchError("start-up probe did not report READY")
    return times


def serial_phase(workdir, genome, pairs, expected, seconds, traced, tag) -> Phase:
    phase = Phase()
    tracing = Tracing(traced)
    try:
        # At least two jobs; another only while it is expected to end in time.
        k = 0
        while k < 2 or phase.elapsed + phase.walls[-1] <= seconds:
            ctx = serial_context(workdir, f"{tag}{k}")
            try:
                tracing.job(f"job{k}")
                path = os.path.join(workdir, f"{tag}{k}.vcf")
                started = time.perf_counter()
                calls = run_wgs(ctx, genome, pairs, path)
                ended = time.perf_counter()
                phase.snapshots.append(ctx.telemetry_snapshot())
            finally:
                ctx.stop()
            tracing.job(None)
            phase.walls.append(ended - started)
            phase.windows.append((started, ended))
            phase.elapsed += ended - started
            phase.pairs += len(pairs)
            check_job(phase, path, expected, calls, genome)
            k += 1
    finally:
        tracing.close()
    phase.rss_mib = peak_rss_mib(os.getpid())
    if tracing.recorder is not None:
        phase.spans = tracing.recorder.spans
        phase.counts = dict(tracing.recorder.counts)
    return phase


def workload_serial(args, workdir) -> tuple[Phase, list[float], Phase | None]:
    genome = make_genome()
    pairs = make_pairs(genome, WGS_PAIRS, args.seed)
    expected = expected_digest(workdir, genome, pairs, "serial")
    if not args.trace:
        setup = serial_setup_s(workdir)
        return serial_phase(workdir, genome, pairs, expected, args.seconds, False, "job"), setup, None
    base = serial_phase(workdir, genome, pairs, expected, args.seconds / 2, False, "base")
    traced = serial_phase(workdir, genome, pairs, expected, args.seconds / 2, True, "traced")
    return traced, [], base


# -- wgs_cluster -------------------------------------------------------------------
class Fleet:
    """A warm cluster context plus its loopback worker subprocesses."""

    def __init__(self, workdir: str, tag: str, spans_dir: str | None):
        from repro.engine.context import EngineConfig, GPFContext

        self.procs: list[subprocess.Popen] = []
        self.span_files: list[str] = []
        started = time.perf_counter()
        self.ctx = GPFContext(
            EngineConfig(
                executor_backend="cluster",
                num_workers=CLUSTER_WORKERS,
                default_parallelism=PARTITIONS,
                cluster_min_workers=CLUSTER_WORKERS,
                cluster_wait=WAIT_S,
                spill_dir=os.path.join(workdir, f"spill-{tag}"),
            )
        )
        try:
            port = self.ctx.executor.fleet.port
            for i in range(CLUSTER_WORKERS):
                spans = None
                if spans_dir is not None:
                    spans = os.path.join(spans_dir, f"{tag}-w{i}.json")
                    self.span_files.append(spans)
                self.procs.append(
                    launch(
                        workdir,
                        [
                            "worker",
                            "--connect",
                            f"127.0.0.1:{port}",
                            "--slots",
                            "1",
                            "--id",
                            f"{tag}-w{i}",
                            "--work-dir",
                            os.path.join(workdir, f"{tag}-w{i}"),
                        ],
                        spans=spans,
                        stderr=subprocess.DEVNULL,
                    )
                )
            live = self.ctx.executor.fleet.wait_for_workers(CLUSTER_WORKERS, WAIT_S)
            if live < CLUSTER_WORKERS:
                raise BenchError(f"only {live} of {CLUSTER_WORKERS} workers registered")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def rss_mib(self) -> float:
        return peak_rss_mib(os.getpid()) + sum(peak_rss_mib(p.pid) for p in self.procs)

    def close(self) -> None:
        """Stop the driver; the workers exit when it hangs up."""
        self.ctx.stop()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                stop_process(proc)


def cluster_phase(workdir, genome, pairs, expected, seconds, traced, tag, fleet=None) -> Phase:
    """``seconds / CLUSTER_JOB_SECONDS`` back-to-back jobs on one warm fleet."""
    from spans import SpanRecorder

    phase = Phase()
    spans_dir = os.path.join(workdir, "spans") if traced else None
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    tracing = Tracing(traced)
    try:
        if fleet is None:
            fleet = Fleet(workdir, tag, spans_dir)
        try:
            for k in range(max(2, round(seconds / CLUSTER_JOB_SECONDS))):
                tracing.job(f"job{k}")
                path = os.path.join(workdir, f"{tag}{k}.vcf")
                started = time.perf_counter()
                calls = run_wgs(fleet.ctx, genome, pairs, path)
                phase.snapshots.append(fleet.ctx.telemetry_snapshot())
                fleet.ctx.reset_for_reuse()
                ended = time.perf_counter()
                tracing.job(None)
                phase.walls.append(ended - started)
                phase.windows.append((started, ended))
                phase.elapsed += ended - started
                phase.pairs += len(pairs)
                check_job(phase, path, expected, calls, genome)
            phase.rss_mib = fleet.rss_mib()
        finally:
            fleet.close()
    finally:
        tracing.close()
    if tracing.recorder is not None:
        phase.spans = list(tracing.recorder.spans)
        counts = dict(tracing.recorder.counts)
        for path in fleet.span_files:
            spans, remote_counts = SpanRecorder.load(path)
            phase.spans.extend(spans)
            for name, value in remote_counts.items():
                counts[name] = counts.get(name, 0) + value
        phase.counts = counts
    phase.extra["dist.bytes_shipped_per_job"] = [
        s["counters"].get("dist.bytes_shipped", 0) for s in phase.snapshots
    ]
    return phase


def workload_cluster(args, workdir):
    genome = make_genome()
    pairs = make_pairs(genome, WGS_PAIRS, args.seed)
    expected = expected_digest(workdir, genome, pairs, "cluster")
    if not args.trace:
        setup = []
        for i in range(SETUP_REPEATS - 1):
            fleet = Fleet(workdir, f"setup{i}", None)
            setup.append(fleet.setup_s)
            fleet.close()
        fleet = Fleet(workdir, "job", None)
        setup.append(fleet.setup_s)
        return cluster_phase(workdir, genome, pairs, expected, args.seconds, False, "job", fleet), setup, None
    base = cluster_phase(workdir, genome, pairs, expected, args.seconds / 2, False, "base")
    traced = cluster_phase(workdir, genome, pairs, expected, args.seconds / 2, True, "traced")
    return traced, [], base


# -- serve_jobs --------------------------------------------------------------------
@dataclass
class ServeInputs:
    genome: Genome
    reference: str
    known: str
    read_sets: list  # (pairs, expected digest, target window)


def serve_inputs(args, workdir, jobs: int) -> ServeInputs:
    """Shared reference and known sites on disk, one target panel per job."""
    import random

    from repro.formats.fasta import write_fasta
    from repro.formats.vcf import VcfHeader, sort_records, write_vcf
    from repro.sim import ReadSimConfig, TargetedReadSimulator, TargetInterval, TargetPanel

    genome = make_genome()
    reference = os.path.join(workdir, "reference.fa")
    known = os.path.join(workdir, "known.vcf")
    write_fasta(genome.reference, reference)
    header = VcfHeader(tuple(genome.reference.contig_lengths()))
    write_vcf(header, sort_records(genome.known, genome.reference.contig_names), known)
    rng = random.Random(GENOME_SEED)
    read_sets = []
    for j in range(jobs):
        contig = rng.choice(genome.reference.contigs)
        start = rng.randrange(0, len(contig) - SERVE_TARGET)
        window = (contig.name, start, start + SERVE_TARGET)
        panel = TargetPanel("job", [TargetInterval(*window)])
        pairs = TargetedReadSimulator(
            genome.truth.donor,
            panel,
            ReadSimConfig(coverage=SERVE_COVERAGE, seed=args.seed * 1000 + j),
        ).simulate()
        expected = expected_digest(
            workdir,
            genome,
            pairs,
            f"set{j}",
            partitions=SERVE_PARTITIONS,
            partition_length=SERVE_PARTITION_LENGTH,
        )
        read_sets.append((pairs, expected, window))
    return ServeInputs(genome, reference, known, read_sets)


def write_job_reads(workdir: str, tag: str, k: int, pairs: list) -> tuple[str, str]:
    from repro.formats.fastq import write_fastq

    paths = (
        os.path.join(workdir, f"{tag}-job{k}_1.fastq"),
        os.path.join(workdir, f"{tag}-job{k}_2.fastq"),
    )
    write_fastq([p.read1 for p in pairs], paths[0])
    write_fastq([p.read2 for p in pairs], paths[1])
    return paths


def serve_jobs(seconds: float) -> int:
    return max(2, round(SERVE_RATE * seconds))


class Server:
    """A ``gpf serve`` subprocess; ``setup_s`` is start until /healthz answers."""

    def __init__(self, workdir: str, tag: str, spans: str | None):
        from repro.serve.client import ServiceClient

        started = time.perf_counter()
        self.proc = launch(
            workdir,
            [
                "serve",
                "--state-dir",
                os.path.join(workdir, f"state-{tag}"),
                "--port",
                "0",
                "--workers",
                str(SERVE_WORKERS),
                "--queue-depth",
                "256",
                "--partitions",
                str(SERVE_PARTITIONS),
            ],
            spans=spans,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            url = None
            while url is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("gpf serve exited before listening")
                if "listening on " in line:
                    url = line.split("listening on ")[1].split()[0]
            self.client = ServiceClient(url, timeout=WAIT_S)
            deadline = time.perf_counter() + WAIT_S
            while True:
                try:
                    self.client.health()
                    break
                except Exception:  # noqa: BLE001 - not answering yet
                    if time.perf_counter() > deadline:
                        raise BenchError("gpf serve never answered /healthz") from None
                    time.sleep(0.01)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        stop_process(self.proc)
        self.proc.stdout.close()


def serve_phase(workdir, inputs: ServeInputs, seconds, traced, tag, server=None) -> Phase:
    """Open-loop arrivals over ``seconds``; latency runs from each due time."""
    from repro.formats.vcf import read_vcf
    from repro.serve.client import ServiceError
    from spans import SpanRecorder

    phase = Phase()
    count = serve_jobs(seconds)
    dues = [k / SERVE_RATE for k in range(count)]
    jobs = []
    for k in range(count):
        pairs, expected, window = inputs.read_sets[k]
        fq1, fq2 = write_job_reads(workdir, tag, k, pairs)
        spec = {
            "reference": inputs.reference,
            "fastq1": fq1,
            "fastq2": fq2,
            "known_sites": inputs.known,
            "output": os.path.join(workdir, f"{tag}-job{k}.vcf"),
            "partitions": SERVE_PARTITIONS,
            "partition_length": SERVE_PARTITION_LENGTH,
        }
        jobs.append({"spec": spec, "pairs": pairs, "expected": expected, "window": window})
    spans = os.path.join(workdir, f"spans-{tag}.json") if traced else None
    if server is None:
        server = Server(workdir, tag, spans)
    late, submit_s, refused = [], [], 0
    try:
        # Wall clock, because job records carry the server's time.time().
        base_wall = time.time() + 0.05
        base = time.perf_counter() + 0.05
        for job, due in zip(jobs, dues):
            delay = base + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            late.append(sent - (base + due))
            job["due_wall"] = base_wall + due
            try:
                job["id"] = server.client.submit(job["spec"])["id"]
            except ServiceError as exc:
                if exc.status not in (429, 503):
                    raise
                refused += 1
            submit_s.append(time.perf_counter() - sent)
        ids = {job["id"] for job in jobs if "id" in job}
        deadline = time.perf_counter() + WAIT_S
        while True:
            states = {j["id"]: j for j in server.client.jobs() if j["id"] in ids}
            if all(j["state"] in ("succeeded", "failed", "cancelled") for j in states.values()):
                break
            if time.perf_counter() > deadline:
                raise BenchError("served backlog did not drain")
            time.sleep(0.25)
        records = {jid: server.client.job(jid) for jid in ids}
        phase.rss_mib = peak_rss_mib(server.proc.pid)
    finally:
        server.close()
    finished = []
    for job in jobs:
        phase.attempted += 1
        record = records.get(job.get("id"))
        if record is None or record["state"] != "succeeded":
            phase.failed += 1
            continue
        latency = record["finished_at"] - job["due_wall"]
        phase.walls.append(latency)
        phase.pairs += len(job["pairs"])
        phase.snapshots.append(record["result"]["telemetry"])
        finished.append(record["finished_at"])
        phase.extra.setdefault("serve.queue_s", []).append(record["queue_seconds"])
        phase.extra.setdefault("serve.run_s", []).append(record["run_seconds"])
        phase.extra.setdefault("serve.overhead_s", []).append(
            latency - record["queue_seconds"] - record["run_seconds"]
        )
        path = job["spec"]["output"]
        if digest(path) != job["expected"]:
            phase.mismatched += 1
            phase.failed += 1
            continue
        _, calls = read_vcf(path)
        phase.score.add(calls, inputs.genome, job["window"])
    # Throughput over the whole stream: first due time to last success.
    phase.elapsed = (max(finished) - base_wall) if finished else float(seconds)
    phase.extra["serve.submit_s"] = submit_s
    phase.extra["serve.refused"] = refused
    phase.extra["loadgen.late"] = late
    if spans:
        phase.spans, phase.counts = SpanRecorder.load(spans)
    return phase


def workload_serve(args, workdir):
    inputs = serve_inputs(args, workdir, serve_jobs(args.seconds))
    if not args.trace:
        setup = []
        for i in range(SETUP_REPEATS - 1):
            server = Server(workdir, f"setup{i}", None)
            setup.append(server.setup_s)
            server.close()
        server = Server(workdir, "job", None)
        setup.append(server.setup_s)
        return serve_phase(workdir, inputs, args.seconds, False, "job", server), setup, None
    base = serve_phase(workdir, inputs, args.seconds / 2, False, "base")
    traced = serve_phase(workdir, inputs, args.seconds / 2, True, "traced")
    return traced, [], base


WORKLOADS = {
    "wgs_serial": workload_serial,
    "wgs_cluster": workload_cluster,
    "serve_jobs": workload_serve,
}


# -- results -----------------------------------------------------------------------
def end_to_end(phase: Phase, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    n = len(phase.walls)
    return {
        "pairs_per_s": (phase.pairs / phase.elapsed, n),
        "job_p50_s": (statistics.median(phase.walls), n),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mib": (phase.rss_mib, 1),
        "call_f1": (phase.score.f1, n),
    }


def per_layer(workload: str, phase: Phase, base: Phase) -> dict[str, tuple[float, int]]:
    from layers import PER_LAYER, residual_s, span_metrics, telemetry_metrics
    from spans import self_time_by_name

    jobs = len(phase.walls)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(phase.spans, phase.counts, jobs))
    values.update(telemetry_metrics(phase.snapshots))
    if workload == "serve_jobs":
        # The server's serve.job span wraps one whole job on its worker
        # thread; what its children leave uncovered is unattributed.
        values["engine.residual_s"] = self_time_by_name(phase.spans).get("serve.job", 0.0) / max(1, jobs)
        for name in ("serve.queue_s", "serve.run_s", "serve.overhead_s", "serve.submit_s"):
            samples = phase.extra.get(name) or [0.0]
            values[name] = statistics.median(samples)
        values["serve.refused"] = phase.extra["serve.refused"]
        values["loadgen.late_p90_s"] = percentile(phase.extra["loadgen.late"], 90)
        traced_run = phase.extra["serve.run_s"]
        base_run = base.extra.get("serve.run_s") or traced_run
        values["obs.trace_overhead_frac"] = statistics.median(traced_run) / statistics.median(base_run) - 1
    else:
        driver = [s for s in phase.spans if s.id.startswith(f"{os.getpid()}:")]
        values["engine.residual_s"] = residual_s(driver, phase.windows) / max(1, jobs)
    if workload == "wgs_cluster":
        pairs = list(zip(phase.walls, base.walls))
        values["obs.trace_overhead_frac"] = statistics.median(t / b for t, b in pairs) - 1
    elif workload == "wgs_serial":
        values["obs.trace_overhead_frac"] = statistics.median(phase.walls) / statistics.median(base.walls) - 1
    return {name: (value, jobs) for name, value in values.items()}


def environment(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root())
    os.makedirs(os.path.join(workdir, "tmp"))
    tempfile.tempdir = os.path.join(workdir, "tmp")
    try:
        phase, setup, base = WORKLOADS[args.workload](args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    if not phase.walls:
        print("perfbench: no job completed", file=sys.stderr)
        return 3
    if args.trace:
        from layers import PER_LAYER

        table = per_layer(args.workload, phase, base)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        table = end_to_end(phase, setup)
        units = END_TO_END
    print(f"{'metric':<28} {'value':>14} {'unit':<6} samples")
    for name, (value, n) in table.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<6} {n}")
    print("job seconds:", [round(w, 3) for w in phase.walls])
    if phase.extra.get("dist.bytes_shipped_per_job"):
        print("dist.bytes_shipped per job:", phase.extra["dist.bytes_shipped_per_job"])
    print(f"jobs attempted {phase.attempted}, failed {phase.failed}, VCF mismatches {phase.mismatched}")
    print(json.dumps({"environment": environment(args)}))
    correct = phase.mismatched == 0 and phase.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": phase.attempted,
                "failed": phase.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _) in table.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _work_root() -> str:
    root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main())
