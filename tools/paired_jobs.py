"""Paired, interleaved timing of two confdyn checkouts on one benchmark stream.

    python tools/paired_jobs.py --a /path/to/a/src --b /path/to/b/src \\
        --workload flow --seed 9 --jobs 100

Starts one persistent worker process per checkout; each imports confdyn
from its ``src`` once.  Both workers run the first ``--jobs`` jobs of the
seeded ``perfbench`` stream of the workload, job by job: job i runs on one
side and then on the other, and the side that goes first alternates (a
first on even i).  So a slow moment of the machine falls on both sides of
a pair, which whole-run A/B comparisons cannot arrange.  Each job is timed
as ``perfbench/run.py`` times it (``run_job``), the first job of a kind
included, lazy imports and all, on both sides alike.

It prints the total job time of each side and their ratio b/a, p50 and p90
of the job times per side with their ratios b/a, the ratio b/a of summed time per job kind over
the jobs after the kind's first (n counts them all), the failed operations
of each side and how many jobs wrote different bytes on the two sides.  The
first job of a kind pays the lazy imports of its path, so a change that
moves an import from one kind to another shows in those jobs alone: their
times go to stderr, one line, so that stdout keeps its six lines.  It reads
``perfbench/`` next to this script and changes nothing there; the jobs
write into temporary directories.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_WORKER = ("import sys; sys.path[:0] = sys.argv[1:3]; import paired_jobs; "
           "paired_jobs.worker(*sys.argv[3:])")


def worker(src: str, workload: str, seed: str, jobs: str):
    """Serve job indices read from stdin, one per line, with one JSON line
    each on stdout: wall seconds, operations attempted and failed, and the
    digest of the outputs."""
    sys.path.insert(0, str(Path(src).resolve()))
    import bench_jobs
    import run as perfrun
    from confdyn.cli import main

    stream = bench_jobs.first_jobs(bench_jobs.WORKLOADS[workload], int(seed), int(jobs))
    reply = sys.stdout
    with tempfile.TemporaryDirectory(prefix="paired-") as work:
        for line in sys.stdin:
            i = int(line)
            job, out_dir = stream[i], Path(work) / str(i)
            wall, rc, error = perfrun.run_job(main, job, out_dir)
            verdict = bench_jobs.judge(job, rc, error, out_dir)
            print(json.dumps([wall, verdict.attempted, verdict.failed,
                              bench_jobs.digest(out_dir)]), file=reply, flush=True)


def _start(src: str, args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER, str(Path(__file__).resolve().parent),
         str(PERFBENCH), src, args.workload, str(args.seed), str(args.jobs)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))


def _ask(proc: subprocess.Popen, i: int) -> list:
    proc.stdin.write(f"{i}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        sys.exit(f"paired_jobs: a worker stopped at job {i}")
    return json.loads(line)


def _p90(walls) -> float:
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="src directory of side a")
    ap.add_argument("--b", required=True, help="src directory of side b")
    ap.add_argument("--workload", required=True, choices=("flow", "static"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    sys.dont_write_bytecode = True         # leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    import bench_jobs

    kinds = [job.kind for job in bench_jobs.first_jobs(
        bench_jobs.WORKLOADS[args.workload], args.seed, args.jobs)]
    procs = {"a": _start(args.a, args), "b": _start(args.b, args)}
    results = {"a": [], "b": []}
    try:
        for i in range(args.jobs):
            for side in ("ab" if i % 2 == 0 else "ba"):
                results[side].append(_ask(procs[side], i))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()

    walls = {s: [r[0] for r in rs] for s, rs in results.items()}
    total = {s: sum(w) for s, w in walls.items()}
    print(f"paired_jobs: {args.workload} seed {args.seed}, {args.jobs} jobs, "
          f"a = {args.a}, b = {args.b}")
    print(f"total   a {total['a']:.4f} s   b {total['b']:.4f} s   "
          f"b/a {total['b'] / total['a']:.4f}")
    for name, stat in (("p50", statistics.median), ("p90", _p90)):
        a, b = stat(walls["a"]), stat(walls["b"])
        print(f"{name}     a {a:.4f} s   b {b:.4f} s   b/a {b / a:.4f}")
    first, per_kind = {}, {}
    for kind, wa, wb in zip(kinds, walls["a"], walls["b"]):
        sums = per_kind.setdefault(kind, [0, 0.0, 0.0])
        sums[0] += 1
        if sums[0] == 1:
            first[kind] = wa, wb
        else:
            sums[1] += wa
            sums[2] += wb
    print("first job per kind: " + ", ".join(
        f"{kind} a {wa:.4f} s b {wb:.4f} s" for kind, (wa, wb) in sorted(first.items())),
        file=sys.stderr)
    print("b/a per kind: " + ", ".join(
        f"{kind} {sb / sa if n > 1 else float('nan'):.4f} (n={n})"
        for kind, (n, sa, sb) in sorted(per_kind.items())))
    failed = {s: (sum(r[2] for r in rs), sum(r[1] for r in rs))
              for s, rs in results.items()}
    differ = sum(ra[3] != rb[3] for ra, rb in zip(results["a"], results["b"]))
    print(f"failed  a {failed['a'][0]} of {failed['a'][1]}   "
          f"b {failed['b'][0]} of {failed['b'][1]} operations; "
          f"outputs differ in {differ} of {args.jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
