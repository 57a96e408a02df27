#!/usr/bin/env python3
"""Closed-loop job benchmark for scfactor.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (any directory works; paths resolve from this
file). For each workload the run generates the seeded job stream, writes
one config file per job under .bench_work/, and sends the jobs one at a time
through ``scfactor.cli.main([...])`` in this process, each only after the
previous one finished (one client, closed loop, no threads or subprocesses
while timing). Every report is checked against the job's planted
expectation; mismatches are printed by job id.

--trace 0 prints the end-to-end metrics; --trace 1 runs the jobs with layer
tracing on and prints the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import check  # noqa: E402  (bench/ is on sys.path as the script directory)
import jobs  # noqa: E402
import tracing  # noqa: E402

# A run keeps going past --seconds until it has this many timed jobs, so the
# 90th percentile has at least ten samples beyond it.
MIN_JOBS = 100
# Stop starting new blocks after this long even if MIN_JOBS is not reached.
HARD_CAP_S = 120.0
SETUP_REPS = 7

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh interpreter: time from `import scfactor` through one warm-up job.
_SETUP_PROBE = """
import sys, time, io, contextlib
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scfactor
from scfactor import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0))
"""


class Runner:
    """Runs jobs through the CLI entry point and checks each report."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, job: jobs.Job) -> float:
        """Run one job; returns its wall time in seconds, call to checked report."""
        if self.tracer is not None:
            self.tracer.job = job.id
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(job.argv())
            problems = check.check(job.expect, rc, out.getvalue())
        except (Exception, SystemExit):
            problems = ["raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
        elapsed = perf_counter() - t0
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"MISMATCH {job.id}: {problem}")
        return elapsed

    def loop(self, blocks, seconds: float, min_jobs: int):
        """Closed loop over whole blocks until ``seconds`` have passed and at
        least ``min_jobs`` jobs ran. Returns job latencies and wall time."""
        latencies: list[float] = []
        t0 = perf_counter()
        for block in itertools.cycle(blocks):
            for job in block:
                latencies.append(self.run(job))
            elapsed = perf_counter() - t0
            if (elapsed >= seconds and len(latencies) >= min_jobs) or elapsed >= HARD_CAP_S:
                return latencies, elapsed
        raise ValueError("no blocks to run")


def traced_loop(runner: Runner, tracer: tracing.Tracer, blocks, seconds: float):
    """Run each block traced, then the same block untraced, until ``seconds``
    have passed. Pairing block by block keeps drift in machine speed out of
    the overhead. Returns traced job latencies and the traced and untraced
    wall times."""
    latencies: list[float] = []
    traced = untraced = 0.0
    t_start = perf_counter()
    for block in itertools.cycle(blocks):
        t0 = perf_counter()
        runner.tracer = tracer
        with tracer.installed():
            for job in block:
                latencies.append(runner.run(job))
        runner.tracer = None
        t1 = perf_counter()
        for job in block:
            runner.run(job)
        t2 = perf_counter()
        traced += t1 - t0
        untraced += t2 - t1
        if t2 - t_start >= seconds:
            return latencies, traced, untraced
    raise ValueError("no blocks to run")


def measure_setup(argv: list[str]) -> float:
    """Median over SETUP_REPS fresh interpreters of import plus one job."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), *argv],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile_ms(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1000.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from scfactor import cli

    workdir = WORK / f"{name}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    blocks = jobs.make_blocks(name, seed)
    jobs.write_jobs(blocks, workdir / "jobs")
    metrics: dict[str, float] = {}
    if not trace:
        warm_job = jobs.make_blocks("small-jobs", seed, 1)[0][0]
        jobs.write_jobs([[warm_job]], workdir / "setup")
        metrics["setup_s"] = measure_setup(warm_job.argv())

    runner = Runner(cli)
    for job in blocks[0]:  # warm-up: first calls, lazy state; checked, not timed
        runner.run(job)
    timed_blocks = blocks[1:]
    print(f"== {name} seed {seed}: {len(blocks)} blocks of {len(blocks[0])} jobs, "
          f"closed loop, 1 client, trace {int(trace)}")

    if not trace:
        lat, wall = runner.loop(timed_blocks, seconds, MIN_JOBS)
        metrics["jobs_per_s"] = len(lat) / wall
        metrics["job_p50_ms"] = statistics.median(lat) * 1000.0
        metrics["job_p90_ms"] = percentile_ms(lat, 90)
        metrics["ok_ratio"] = 1.0 - runner.failed / runner.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"timed {len(lat)} jobs in {wall:.2f} s; failed_ratio "
              f"{runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted})")
        for key in ("jobs_per_s", "job_p50_ms", "job_p90_ms", "ok_ratio", "setup_s",
                    "peak_rss_mb"):
            note = f"  (n={len(lat)})" if key.startswith("job_p") else ""
            print(f"  {key:14s} {metrics[key]:12.4f} {E2E_UNITS[key]}{note}")
    else:
        tracer = tracing.Tracer()
        lat, wall, untraced_wall = traced_loop(runner, tracer, timed_blocks, seconds)
        tracer.write(workdir / "spans.jsonl")
        metrics = tracing.layer_metrics(tracer, len(lat), sum(lat))
        traced_jps, untraced_jps = len(lat) / wall, len(lat) / untraced_wall
        metrics["trace.jobs_per_s_traced"] = traced_jps
        metrics["trace.jobs_per_s_untraced"] = untraced_jps
        metrics["trace.overhead_pct"] = (untraced_jps - traced_jps) / untraced_jps * 100.0
        print(f"traced {len(lat)} jobs in {wall:.2f} s, the same jobs untraced in "
              f"{untraced_wall:.2f} s; spans in {workdir / 'spans.jsonl'}")
        job_ms = sum(lat) * 1000.0 / len(lat)
        print(f"  {'layer':12s} {'self ms/job':>12s} {'share':>7s}")
        for layer in tracing.LAYERS:
            v = metrics[f"layer.{layer}.self_ms"]
            print(f"  {layer:12s} {v:12.3f} {v / job_ms:7.1%}")
        v = metrics["trace.unattributed_ms"]
        print(f"  {'unattributed':12s} {v:12.3f} {v / job_ms:7.1%}")
        for key, value in metrics.items():
            unit, _, moves = tracing.LAYER_METRICS[key]
            print(f"  {key:36s} {value:14.4f} {unit:9s}  moves: {moves}")
    shutil.rmtree(workdir / "jobs")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _with_units(metrics: dict, trace: bool) -> dict:
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()} if trace else E2E_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*jobs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "scfactor" / "__init__.py").is_file():
        print(f"error: no scfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        res = results[names[0]]
        metrics = _with_units(res["metrics"], bool(args.trace))
    else:
        metrics = {f"{name}.{k}": v for name, res in results.items()
                   for k, v in _with_units(res["metrics"], bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
