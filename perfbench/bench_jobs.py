"""Seeded job streams for the two benchmark workloads and the verdict
expected of every operation they contain.

A job is one ``confdyn`` command line.  The program receives only the
generated ``--preset``/``--set``/``--seed`` arguments; every drawn number is
written as ``repr(float(x))`` so the config parser sees a plain decimal.

Kinds are interleaved by smooth weighted round robin, so every prefix of a
stream holds each kind within one job of its weighted share.  That keeps
``job_p50_s`` and ``job_p90_s`` inside the time band of the kind the mix
assigns them to, whatever the run length.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

TOL_REL = 1e-8          # the CLI's default --tol-rel, its own drift gate
SHELL_RTOL = 1e-12      # orbit samples: |p.p - m^2| <= SHELL_RTOL * max(1, m^2)
_ERF_WINDOW = math.erf(3.75)   # the fig2 preset's plotted k x- window

CERTIFY_EXPECT = {
    "planewave": ("maximally superintegrable",),
    "dilation": ("integrable",),
    "spacelike": ("maximally superintegrable",),
    "conformal": ("minimally superintegrable", "superintegrable",
                  "maximally superintegrable"),
    "truncated": ("not certified",),
}


@dataclass(frozen=True)
class Job:
    kind: str
    command: str
    argv: tuple
    runs: int = 1        # trajectories written by a simulate job
    fmt: str = "csv"

    def cli_args(self, out_dir) -> list:
        return list(self.argv) + ["--out-dir", str(out_dir)]


def _num(x) -> str:
    return repr(float(x))


def _fig2_entry(kappa: float) -> tuple:
    """(p-, x+ end) of the error-function orbit of steepness kappa, as the
    fig2 preset builds them (m0sq = L = k = 1)."""
    pminus = math.sqrt(kappa / (2.0 * math.sqrt(math.pi)))
    return _num(pminus), _num(1.0 / (1.0 - kappa * _ERF_WINDOW))


def _sets(assignments) -> list:
    out = []
    for a in assignments:
        out += ["--set", a]
    return out


# -- flow: simulate jobs -----------------------------------------------------

def _quarter(rng: random.Random, lo: float, hi: float, i: int) -> float:
    """A uniform draw from the i-th quarter of [lo, hi].  The four runs of a
    sweep take one draw from each quarter, so every sweep spans the whole
    range and sweeps of one kind cost about the same."""
    width = (hi - lo) / 4.0
    return rng.uniform(lo + i * width, lo + (i + 1) * width)


def _flow_job(kind: str, rng: random.Random, fmt: str) -> Job:
    seed = rng.randrange(1, 2 ** 31)
    base = ["simulate", "--format", fmt, "--seed", str(seed)]
    if kind == "fig1":
        sweep = [f"sweep.override_{i}=initial.p=0,0,{_num(_quarter(rng, -0.6, -0.25, i))}"
                 for i in range(4)]
        return Job(kind, "simulate", tuple(base + ["--preset", "fig1"] + _sets(sweep)),
                   runs=4, fmt=fmt)
    if kind == "fig2":
        sweep = ["sweep.override_{}=initial.pminus={};run.tend={}".format(
                     i, *_fig2_entry(_quarter(rng, 0.3, 0.9, i))) for i in range(4)]
        return Job(kind, "simulate", tuple(base + ["--preset", "fig2"] + _sets(sweep)),
                   runs=4, fmt=fmt)
    if kind == "planewave":
        sets = [f"initial.pminus={_num(rng.uniform(0.4, 0.6))}"]
        return Job(kind, "simulate", tuple(base + ["--preset", "planewave"] + _sets(sets)),
                   fmt=fmt)
    if kind == "dilation":
        p = ",".join(_num(rng.uniform(-0.06, 0.06)) for _ in range(3))
        return Job(kind, "simulate",
                   tuple(base + ["--preset", "dilation"] + _sets([f"initial.p={p}"])),
                   fmt=fmt)
    if kind == "covariant":
        # proper-time flow on the dilation background; no preset uses this form
        v = [rng.uniform(-0.2, 0.2) for _ in range(3)]
        u0 = math.sqrt(1.0 + sum(c * c for c in v))
        x4 = ",".join(_num(c) for c in [2.0] + [rng.uniform(-0.3, 0.3) for _ in range(3)])
        xdot = ",".join(_num(c) for c in [u0] + v)
        sets = ["run.form=covariant", "run.tstart=0", "run.tend=3",
                f"initial.x4={x4}", f"initial.xdot={xdot}", "monitor.extra="]
        return Job(kind, "simulate", tuple(base + ["--preset", "dilation"] + _sets(sets)),
                   fmt=fmt)
    raise ValueError(kind)


# -- static: certify, kg modes and closed-form orbits -----------------------

def _certify_job(kind: str, rng: random.Random, fmt: str) -> Job:
    preset, count = kind.rsplit("-", 1)
    argv = ["certify", "--preset", preset, "--seed", str(rng.randrange(1, 2 ** 31)),
            "--set", f"certify.count={count}"]
    return Job(kind, "certify", tuple(argv))


def _exact_job(kind: str, rng: random.Random, fmt: str) -> Job:
    command, preset = kind.split("-", 1)
    argv = [command, "--preset", preset, "--seed", str(rng.randrange(1, 2 ** 31))]
    if kind == "orbit-fig2":
        pminus, tend = _fig2_entry(rng.uniform(0.3, 0.9))
        argv += _sets([f"initial.pminus={pminus}", f"run.tend={tend}"])
    return Job(kind, command, tuple(argv))


def _static_job(kind: str, rng: random.Random, fmt: str) -> Job:
    if kind.startswith(("kg-", "orbit-")):
        return _exact_job(kind, rng, fmt)
    return _certify_job(kind, rng, fmt)


@dataclass(frozen=True)
class Workload:
    name: str
    weights: tuple        # (kind, weight), cheapest kind first
    make: object          # (kind, rng, fmt) -> Job
    trace_jobs: int       # fixed job count of a traced run
    rate: float           # jobs per second on the reference machine
    json_every: int = 0   # every n-th job of a kind writes --format json

    @property
    def cycle(self) -> int:
        return sum(w for _, w in self.weights)


# Weights are listed from the cheapest kind to the dearest.  They put
# job_p50_s and job_p90_s inside the time band of one kind, or of kinds of
# about the same cost, at least 5 % of the jobs away from the band's edges:
#   flow:   p50 in fig1 sweeps (monitor-bound, band 37.5-85 %),
#           p90 in fig2 sweeps (integrator-bound, band 85-100 %);
#   static: p50 in kg-dilation (stencil-bound phi calls, band 47-57 %, inside
#           the 38-57 % band it shares with conformal-24 certificates),
#           p90 in fig2-type orbits (quad inside brentq, band 88-100 %, inside
#           the 85-100 % band it shares with planewave-96 certificates).
# certify kinds are named <preset>-<states>, kg and orbit kinds
# <command>-<preset>.
WORKLOADS = {
    "flow": Workload("flow", (("dilation", 5), ("covariant", 5),
                              ("planewave", 5), ("fig1", 19), ("fig2", 6)),
                     _flow_job, trace_jobs=20, rate=2.5, json_every=4),
    "static": Workload("static", (("orbit-fig1", 1), ("truncated-24", 4),
                                  ("orbit-planewave", 1), ("kg-kgcontrol", 3),
                                  ("kg-planewave", 4), ("dilation-24", 4),
                                  ("truncated-96", 2), ("spacelike-24", 4),
                                  ("conformal-24", 5), ("kg-dilation", 6),
                                  ("planewave-24", 4), ("kg-conformal", 5),
                                  ("dilation-96", 3), ("spacelike-96", 2),
                                  ("conformal-96", 3), ("planewave-96", 2),
                                  ("orbit-fig2", 7)),
                       _static_job, trace_jobs=60, rate=11.0),
}


def _kind_order(weights) -> list:
    """One cycle of smooth weighted round robin over (kind, weight)."""
    total = sum(w for _, w in weights)
    current = {k: 0 for k, _ in weights}
    order = []
    for _ in range(total):
        for k, w in weights:
            current[k] += w
        pick = max(weights, key=lambda kw: current[kw[0]])[0]
        current[pick] -= total
        order.append(pick)
    return order


def job_stream(workload: Workload, seed: int):
    """Endless, seed-determined sequence of jobs; job i depends only on
    (workload, seed, i)."""
    order = _kind_order(workload.weights)
    seen = {}
    i = 0
    while True:
        kind = order[i % len(order)]
        k = seen.get(kind, 0)
        seen[kind] = k + 1
        fmt = ("json" if workload.json_every and k % workload.json_every
               == workload.json_every - 1 else "csv")
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        yield workload.make(kind, rng, fmt)
        i += 1


def first_jobs(workload: Workload, seed: int, n: int) -> list:
    stream = job_stream(workload, seed)
    return [next(stream) for _ in range(n)]


# -- output fingerprint ------------------------------------------------------

def digest(out_dir: Path) -> str:
    """SHA-256 over every file a job wrote: relative name, size, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# -- verdicts ----------------------------------------------------------------

@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list        # inconsistent or missing outputs


def judge(job: Job, rc, error, out_dir: Path) -> Verdict:
    """Operations attempted and failed by one job, and any output that
    contradicts the program's own report.

    An operation is a trajectory of ``simulate`` or a whole ``certify``,
    ``kg`` or ``orbit`` call.  It fails when it raises, exits 2 or 3, or
    returns a verdict other than the expected one."""
    if error is not None or rc in (2, 3) or rc is None:
        return Verdict(job.runs, job.runs, [])
    try:
        return _JUDGES[job.command](job, rc, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(job.runs, job.runs,
                       [f"{job.kind}: unreadable output ({exc!r})"])


def _judge_simulate(job: Job, rc: int, out_dir: Path) -> Verdict:
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = []
    runs = summary["runs"]
    if len(runs) != job.runs:
        problems.append(f"{job.kind}: {len(runs)} runs, expected {job.runs}")
    if summary["tol_rel"] != TOL_REL:
        problems.append(f"{job.kind}: tol_rel {summary['tol_rel']} != {TOL_REL}")
    failed = 0
    for r in runs:
        gated = [r["drifts"][k] for k in r["gated"]]
        ok = bool(gated) and max(gated) <= TOL_REL
        failed += not ok
        if ok != r["pass"]:
            problems.append(f"{job.kind}: run {r['index']} pass flag contradicts "
                            "its drifts")
        if not (out_dir / r["file"]).is_file() or not r["file"].endswith(job.fmt):
            problems.append(f"{job.kind}: missing trajectory file {r['file']}")
    if (rc == 0) != (failed == 0) or summary["pass"] != (failed == 0):
        problems.append(f"{job.kind}: exit {rc} contradicts the run verdicts")
    return Verdict(job.runs, failed + max(0, job.runs - len(runs)), problems)


def _judge_certify(job: Job, rc: int, out_dir: Path) -> Verdict:
    cert = json.loads((out_dir / "certification.json").read_text())
    preset, count = job.kind.rsplit("-", 1)
    ok = cert["label"] in CERTIFY_EXPECT[preset]
    problems = []
    if (rc == 0) != ok:
        problems.append(f"{job.kind}: exit {rc} for label {cert['label']!r}")
    if len(cert["independence"]["ranks"]) != int(count):
        problems.append(f"{job.kind}: rank votes != {count} states")
    return Verdict(1, int(not ok), problems)


def _judge_kg(job: Job, rc: int, out_dir: Path) -> Verdict:
    summary = json.loads((out_dir / "kg_summary.json").read_text())
    with open(out_dir / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    expect_rc = 1 if job.kind == "kg-kgcontrol" else 0
    problems = []
    in_band = all(3.5 <= float(r["ratio"]) <= 4.5 for r in rows)
    if summary["pass"] != in_band or (rc == 0) != in_band:
        problems.append(f"{job.kind}: exit {rc} contradicts the ratio band")
    if len(rows) != summary["points"]:
        problems.append(f"{job.kind}: {len(rows)} rows for {summary['points']} points")
    return Verdict(1, int(rc != expect_rc), problems)


def _orbit_m2(kind: str, t, x, y, z) -> float:
    """Squared mass of the field each closed form describes, written out
    independently of the program."""
    if kind == "orbit-fig1":
        # the in-field spacelike orbit of m^2 = 1 + z; it continues past the
        # bounce exit (z < 0) without the preset's switch at z = 0
        return 1.0 + z
    xp, xm = t + z, t - z
    if kind == "orbit-planewave":             # 1 + 0.5 sin^2(x+)
        return 1.0 + 0.5 * math.sin(xp) ** 2
    if xp <= 1.0:                             # special_conformal_switched, L = 1
        return 1.0
    u = xm - (x * x + y * y) / xp
    return math.exp(-u * u) / xp ** 2


def _judge_orbit(job: Job, rc: int, out_dir: Path) -> Verdict:
    with open(out_dir / "orbit.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    worst = 0.0
    for row in rows:
        _, t, x, y, z, p0, p1, p2, p3 = map(float, row)
        m2 = _orbit_m2(job.kind, t, x, y, z)
        gap = abs(p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 - m2) / max(1.0, m2)
        worst = max(worst, gap)
    problems = [] if rows else [f"{job.kind}: empty orbit.csv"]
    return Verdict(1, int(rc != 0 or not rows or not worst <= SHELL_RTOL), problems)


_JUDGES = {"simulate": _judge_simulate, "certify": _judge_certify,
           "kg": _judge_kg, "orbit": _judge_orbit}
