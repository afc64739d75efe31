"""confdyn benchmark: seeded CLI jobs run one after another in one process.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 0

Run it from a checkout that holds ``src/confdyn``; it imports the package
from there and writes only into a temporary directory inside the checkout.

``--trace 0`` measures the end-to-end metrics in a closed loop with one
client: it calls ``confdyn.cli.main`` for job after job of the workload's
seeded stream.  The number of jobs is fixed by the workload and
``--seconds`` (about that many seconds of work on the reference machine,
at least MIN_JOBS), so a run at one seed does the same work and finds the
same failures.  Only a run on a machine so slow that it reaches TIME_CAP
times ``--seconds`` of job time stops short, to keep within its time limit.
Between jobs, outside the timed interval, it checks and hashes every job's
outputs and, at even steps through the run, times a fresh interpreter
importing ``confdyn.cli``; ``setup_s`` is the median of those imports.

``--trace 1`` runs the workload's first ``trace_jobs`` jobs three times:
once plain, then twice with spans around each layer (bench_trace).  It
reports the per-layer metrics of the first traced pass and the tracing
overhead, and checks that outputs and counts repeat exactly.

``--workload all`` runs every workload in turn and prints each one's
metrics.  The last line of standard output is always one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_jobs
import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_JOBS = 100          # job_p90_s then has at least 10 jobs above it
TIME_CAP = 1.5          # a timed run stops after TIME_CAP * --seconds of job time
SETUP_REPEATS = 5
_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import confdyn.cli; "
                 "print(time.perf_counter() - t)")


class Terminated(BaseException):
    """Raised on SIGTERM, past the per-job error handling, so that the work
    directory is still removed on the way out."""


def _terminate(signum, frame):
    raise Terminated(signum)


class Run:
    """What a pass over jobs produced: per-job wall times and digests,
    operations attempted and failed, and every inconsistency found."""

    def __init__(self):
        self.walls = []
        self.kinds = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []

    def add(self, job, wall, rc, error, out_dir):
        verdict = bench_jobs.judge(job, rc, error, out_dir)
        self.walls.append(wall)
        self.kinds.append(job.kind)
        self.digests.append(bench_jobs.digest(out_dir))
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems += verdict.problems
        if error is not None or rc in (2, 3):
            self.errors.append(f"{job.kind} exit {rc} {error!r}")


def import_confdyn():
    if not (SRC / "confdyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no confdyn sources under {SRC}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import confdyn.cli
    if not Path(confdyn.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit("perfbench: confdyn was imported from outside the checkout")
    return confdyn.cli.main


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import confdyn.cli."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def run_job(main, job, out_dir: Path, tracer=None):
    """(wall seconds, exit code, exception) of one CLI call."""
    out_dir.mkdir()
    rc, error = None, None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.begin_job()
        t0 = time.perf_counter()
        try:
            rc = main(job.cli_args(out_dir))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            error = exc
        wall = time.perf_counter() - t0
        if tracer is not None:
            wall = tracer.end_job()
    return wall, rc, error


def run_pass(main, jobs, work: Path, run: Run, tracer=None, tag="p"):
    for i, job in enumerate(jobs):
        out_dir = work / f"{tag}{i:05d}"
        wall, rc, error = run_job(main, job, out_dir, tracer)
        run.add(job, wall, rc, error, out_dir)
        shutil.rmtree(out_dir)


def warm_up(main, wl, seed, work: Path) -> dict:
    """Runs the first job of each kind untimed; returns {index: digest} so
    the timed repeat of the same job can be checked byte for byte."""
    jobs = bench_jobs.first_jobs(wl, seed, wl.cycle)
    firsts = {}
    for i, job in enumerate(jobs):
        firsts.setdefault(job.kind, i)
    digests = {}
    for i in sorted(firsts.values()):
        run = Run()
        run_pass(main, [jobs[i]], work, run, tag=f"w{i}-")
        digests[i] = run.digests[0]
    return digests


def kind_medians(run: Run) -> str:
    by_kind = {}
    for kind, wall in zip(run.kinds, run.walls):
        by_kind.setdefault(kind, []).append(wall)
    return ", ".join(f"{k} {statistics.median(w):.4f} s (n={len(w)})"
                     for k, w in sorted(by_kind.items(),
                                        key=lambda kw: statistics.median(kw[1])))


def fingerprint(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _check_warm(warm: dict, digests: list, problems: list):
    for i, d in warm.items():
        if i < len(digests) and digests[i] != d:
            problems.append(f"job {i}: outputs differ between two runs of one seed")


def job_count(wl, seconds: float) -> int:
    """Jobs in one timed run: about ``seconds`` of work at the workload's
    reference rate, and never fewer than MIN_JOBS.  The count depends only
    on the workload and ``seconds``, so every run at one seed does the same
    jobs and finds the same failures, and every seed gets the same mix."""
    return max(MIN_JOBS, round(seconds * wl.rate))


def end_to_end(main, wl, seed: int, seconds: float, work: Path):
    warm = warm_up(main, wl, seed, work)
    # set-up samples are spread over the run so that one slow moment of the
    # machine does not decide setup_s
    n = job_count(wl, seconds)
    setup_at = {n * k // SETUP_REPEATS for k in range(SETUP_REPEATS)}
    setup = []
    run = Run()
    measured = 0.0
    for i, job in enumerate(bench_jobs.first_jobs(wl, seed, n)):
        if measured >= TIME_CAP * seconds:
            break
        if i in setup_at:
            setup.append(import_seconds())
        run_pass(main, [job], work, run, tag=f"{i:05d}-")
        measured += run.walls[-1]
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())
    setup_s = statistics.median(setup)
    _check_warm(warm, run.digests, run.problems)
    walls = run.walls
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    p90 = deciles[8]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(walls) / measured, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"{len(walls)} jobs in {measured:.2f} s of job time, "
             f"{sum(w > p90 for w in walls)} above job_p90_s",
             f"fail_frac {run.failed / max(run.attempted, 1):.4f} "
             f"({run.failed} of {run.attempted} operations)",
             f"fingerprint of the first {len(run.digests[:wl.trace_jobs])} jobs "
             f"{fingerprint(run.digests[:wl.trace_jobs])}",
             "median per kind: " + kind_medians(run)]
    if len(walls) < n:
        notes.append(f"stopped at the time cap after {len(walls)} of {n} jobs")
    return run, metrics, notes, []


def traced(main, wl, seed: int, work: Path):
    warm = warm_up(main, wl, seed, work)
    jobs = bench_jobs.first_jobs(wl, seed, wl.trace_jobs)
    plain = Run()
    run_pass(main, jobs, work, plain, tag="u")
    _check_warm(warm, plain.digests, plain.problems)
    passes = []
    for k in range(2):
        tracer = bench_trace.Tracer()
        run = Run()
        tracer.install()
        try:
            run_pass(main, jobs, work, run, tracer, tag=f"t{k}-")
        finally:
            tracer.uninstall()
        passes.append((tracer, run))
        if run.digests != plain.digests:
            plain.problems.append(f"traced pass {k + 1}: outputs differ from the "
                                  "plain pass at the same seed")
    (values, absent), (again, _) = [bench_trace.layer_metrics(t) for t, _ in passes]
    for name in bench_trace.EXACT_COUNTS:
        if name in values and values[name][0] != again[name][0]:
            plain.problems.append(f"{name}: {values[name][0]:.0f} then "
                                  f"{again[name][0]:.0f} at one seed")
    untraced = sum(plain.walls)
    traced_wall = statistics.mean(sum(r.walls) for _, r in passes)
    values["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio")
    notes = [f"{len(jobs)} jobs per pass; plain {untraced:.2f} s, traced "
             f"{traced_wall:.2f} s",
             f"fingerprint of the first {wl.trace_jobs} jobs {fingerprint(plain.digests)}"]
    if absent:
        notes.append("absent layers: " + ", ".join(absent))
    if passes[0][0].missing:
        notes.append("not found: " + ", ".join(passes[0][0].missing))
    return plain, values, notes, absent


def declared_metrics(trace: int) -> dict:
    """{name: unit} that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench_workload(main, name: str, seed: int, seconds: float, trace: int, work: Path):
    wl = bench_jobs.WORKLOADS[name]
    if trace:
        run, metrics, notes, absent = traced(main, wl, seed, work)
    else:
        run, metrics, notes, absent = end_to_end(main, wl, seed, seconds, work)
    declared = declared_metrics(trace)
    for metric, (value, unit) in metrics.items():
        if declared.get(metric) != unit:
            run.problems.append(f"{metric} [{unit}] is not declared in BENCHMARK.json")
    for metric in declared.keys() - metrics.keys() - set(absent):
        run.problems.append(f"{metric} is declared in BENCHMARK.json but not measured")
    print(f"== {name} seed {seed} trace {trace}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    for line in notes + run.errors[:5] + run.problems[:20]:
        print(f"  {line}")
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_jobs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli_main = import_confdyn()
    signal.signal(signal.SIGTERM, _terminate)
    names = sorted(bench_jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            run, values = bench_workload(cli_main, name, args.seed, args.seconds,
                                         args.trace, work)
            correct &= not run.problems
            attempted += run.attempted
            failed += run.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in values.items()})
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
