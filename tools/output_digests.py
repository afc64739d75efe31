"""Digest every command x preset x format run of the confdyn command line.

Runs {simulate, certify, kg, orbit} x every preset x {csv, json} at seed 7
in this process through ``confdyn.cli.main``, each into a fresh temporary
directory, and prints one line per run:

    <command> <preset> <format> exit=<code> stdout=<sha256> stderr=<sha256>
        <file>=<sha256> ...

with the output files in sorted order.  stderr's digest is that of its
error line alone, the ``configuration error:`` or ``runtime domain error:``
line of an exit 2 or 3 (empty on exit 0 and 1): warnings a run prints
there depend on what ran before it in the process.  The tool's own stderr
gets one line naming what the bytes depend on beyond the sources, the
OpenBLAS core numpy's BLAS runs on and the SIMD targets numpy dispatches
to:

    machine: openblas=<core> numpy=<target>,<target>,...

(openblas=none where numpy bundles no scipy-openblas).  Each
preset with a [certify] section adds one certify run at the benchmark's
certify.count=96, whose line names ``count=96`` in place of a format.
The fig2 preset adds one orbit run per sweep override (its four kappa
curves, the orbits the benchmark samples), whose line names the override,
``override_<i>``, in place of a format; orbit reads no [sweep], so each
override's settings are passed as --set.  The fig2 preset also adds the
orbit sampled past its asymptote, ``run.tend=50``, which exits 3.  After
every preset's lines come the runs of SETTINGS_RUNS, paths that a preset
reaches only with further settings (the front-form dilation certificate,
the off-shell kg control on the switched linear field, and the fig1 and
fig2 orbits off the axis, whose transverse charges and p+ are not 0, the
fig2 one also as JSON, whose x+ asymptote is not finite, and the plane
wave at p- = 1e200 as JSON, whose run overflows and writes its non-finite
values as null, the covariant flow as the benchmark's covariant jobs run
it, the non-relativistic instant flow through fig1's switch surface, the
fig1 start with a grid time 5.74e-8 before its exit crossing, the plane
wave at p- = 1e200 as CSV, whose columns of one non-finite value each are
formatted once, and the non-relativistic fig1 sweep, refused with exit 2
because it would gate the relativistic spacelike set), each line naming
its ``;``-separated settings, and a flag such as ``--format=json`` where
the run takes one, in place of a format.  Comparing two checkouts is one
diff:

    python tools/output_digests.py --src /path/to/a/src > a.txt
    python tools/output_digests.py --src /path/to/b/src > b.txt
    diff a.txt b.txt

or, to also see how far the differing outputs are apart,

    python tools/output_digests.py --src /path/to/a/src --against /path/to/b/src

which prints only the lines that differ, each followed by one line per
differing output (stdout and the stderr error line included): the largest
absolute difference of its numbers, taken in order, the relative difference
of that same pair, and whether the text around the numbers is equal; then
a count of the differing lines.  Each differing run is repeated for both
checkouts in its own process, so the two packages never share one
interpreter; these processes write no bytecode into either checkout.

Without --src the sources next to this script are used.

tests/output_digests.txt records the lines of the committed sources: a
line naming the Python, numpy and scipy versions, then what

    python tools/output_digests.py 2>&1

prints, its machine line first.  A change that moves bytes rewrites it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "certify", "kg", "orbit")
FORMATS = ("csv", "json")
SEED = 7
CERTIFY_COUNT = 96          # the states of the benchmark's larger certificates
ORBIT_SWEEPS = ("fig2",)    # presets whose sweep curves the benchmark samples as orbits
ERROR_ORBITS = {"fig2": "run.tend=50"}   # presets' orbits sampled past the asymptote: exit 3
# (command, preset, settings) of the runs a preset reaches only with settings
SETTINGS_RUNS = (("certify", "dilation", "certify.form=front"),
                 ("kg", "kgcontrol", "background.family=linear_z;background.B=1"),
                 ("orbit", "fig1", "initial.x=0.3,-0.2,0;initial.p=0.1,-0.2,-0.45;"
                  "background.B=0.7;background.m0sq=1.3;run.tend=3"),
                 ("orbit", "fig2", "initial.xperp=0.2,-0.1;initial.pperp=0.1,0.05"),
                 ("orbit", "fig2", "initial.xperp=0.2,-0.1;initial.pperp=0.1,0.05;"
                  "--format=json"),
                 ("simulate", "planewave", "initial.pminus=1e200;--format=json"),
                 ("simulate", "dilation", "run.form=covariant;run.tstart=0;run.tend=3;"
                  "initial.x4=2,0.1,-0.1,0.3;initial.xdot=1.1,0.4,-0.2,0.1;monitor.extra="),
                 ("simulate", "fig1", "initial.x=0.3,-0.2,0;sweep.count=1;"
                  "sweep.override_0=initial.p=0.1,-0.2,-0.45;run.nonrelativistic=true;"
                  "monitor.set=truncated;monitor.extra=Lz"),
                 ("simulate", "fig1", "sweep.count=1;"
                  "sweep.override_0=initial.p=0,0,-0.5482573890107849"),
                 ("simulate", "planewave", "initial.pminus=1e200"),
                 ("simulate", "fig1", "run.nonrelativistic=true"))

# a number of a csv, json or stdout line; digits inside a name (Q1, run_0)
# are no number
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|inf|NaN|Infinity)(?![\w.])")
_ERROR_LINE = re.compile(r"^(?:configuration error|runtime domain error): .*$",
                         re.MULTILINE)
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from confdyn.cli import main; sys.exit(main(sys.argv[2:]))")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_line(stderr: str) -> str:
    """The error line main printed to stderr, or '' where it printed none."""
    match = _ERROR_LINE.search(stderr)
    return match.group(0) if match else ""


def blas_core():
    """The OpenBLAS core numpy's BLAS runs on (OPENBLAS_CORETYPE sets it for
    a new process), read from the scipy-openblas that numpy bundles; None
    where numpy bundles none."""
    from numpy._core import _multiarray_umath
    try:
        get = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def simd_targets() -> list:
    """The SIMD targets numpy dispatches to here: those it was built for
    that this CPU has (NPY_DISABLE_CPU_FEATURES masks some)."""
    from numpy._core import _multiarray_umath
    features = _multiarray_umath.__cpu_features__
    return [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]


def machine_line() -> str:
    """The line naming the OpenBLAS core and the SIMD targets of this
    process."""
    return f"machine: openblas={blas_core() or 'none'} numpy={','.join(simd_targets())}"


def runs(cli, presets) -> list:
    """(command, preset, label, extra arguments) of every digested run."""
    out = []
    for preset in presets:
        out += [(command, preset, fmt, ["--format", fmt])
                for command in COMMANDS for fmt in FORMATS]
        config = cli.preset_config(preset)
        if "certify" in config:
            out.append(("certify", preset, f"count={CERTIFY_COUNT}",
                        ["--set", f"certify.count={CERTIFY_COUNT}"]))
        if preset in ORBIT_SWEEPS:
            sweep = config["sweep"]
            for i in range(int(sweep["count"])):
                sets = sweep[f"override_{i}"].split(";")
                out.append(("orbit", preset, f"override_{i}",
                            [arg for s in sets for arg in ("--set", s)]))
        if preset in ERROR_ORBITS:
            out.append(("orbit", preset, ERROR_ORBITS[preset],
                        ["--set", ERROR_ORBITS[preset]]))
    return out + [(command, preset, sets,
                   [arg for s in sets.split(";")
                    for arg in ((s,) if s.startswith("--") else ("--set", s))])
                  for command, preset, sets in SETTINGS_RUNS if preset in presets]


def _argv(command: str, preset: str, extra: list, out: Path) -> list:
    return [command, "--preset", preset, "--out-dir", str(out), *extra,
            "--seed", str(SEED)]


def digest_run(main, command: str, preset: str, label: str, extra: list) -> tuple:
    """One output line: the run's exit code and the digests of its stdout,
    of its stderr error line and of each file it wrote; and those files
    as {name: bytes}."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(_argv(command, preset, extra, out))
            except Exception as exc:        # a traceback would exit 1
                code = f"raised-{type(exc).__name__}"
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return " ".join([command, preset, label, f"exit={code}",
                     f"stdout={_sha(stdout.getvalue().encode())}",
                     f"stderr={_sha(error_line(stderr.getvalue()).encode())}"]
                    + [f"{name}={_sha(data)}" for name, data in files.items()]), files


def _outputs(src: str, command: str, preset: str, extra: list, out: Path) -> dict:
    """Run one command of the package in src in a fresh process; its stdout,
    stderr error line and output files as {name: text}."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src, *_argv(command, preset, extra, out)],
        capture_output=True, text=True)
    files = {p.relative_to(out).as_posix(): p.read_text()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"stdout": proc.stdout, "stderr": error_line(proc.stderr), **files}


def compare_text(a: str, b: str) -> str:
    """How two outputs differ: the largest absolute difference of their
    numbers, paired in order, the relative difference of that same pair,
    and whether the rest is equal.  A NaN against a number counts as an
    infinite move.  (The largest relative difference over all pairs would
    be set by rounding noise on numbers near zero.)"""
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    text = "equal" if _NUMBER.sub("#", a) == _NUMBER.sub("#", b) else "differs"
    if len(na) != len(nb):
        return f"numbers={len(na)}/{len(nb)} text={text}"
    max_abs = rel = 0.0
    for x, y in zip(map(float, na), map(float, nb)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        if math.isnan(d):               # a NaN against a number
            max_abs = rel = math.inf
        elif d > max_abs:
            max_abs, rel = d, d / max(abs(x), abs(y))
    return f"max_abs={max_abs:.3g} rel={rel:.3g} text={text}"


def _against(args, todo: list, lines: list) -> int:
    """Print the lines of the runs todo that differ from the checkout in
    args.against, each with how its differing outputs differ."""
    cmd = [sys.executable, "-B", __file__, "--src", args.against]
    for preset in args.presets or ():
        cmd += ["--preset", preset]
    other = subprocess.run(cmd, capture_output=True, text=True, check=True)
    other = other.stdout.splitlines()
    if len(other) != len(lines):
        raise SystemExit(f"{len(lines)} lines here, {len(other)} in {args.against}")
    differing = 0
    for (command, preset, label, extra), mine, theirs in zip(todo, lines, other):
        if mine == theirs:
            continue
        differing += 1
        print(f"{command} {preset} {label} differs", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = (_outputs(src, command, preset, extra, Path(tmp) / side)
                    for side, src in (("a", args.src), ("b", args.against)))
        for name in sorted(a.keys() | b.keys()):
            if name not in a or name not in b:
                print(f"  {name}: only in {args.src if name in a else args.against}")
            elif a[name] != b[name]:
                print(f"  {name}: {compare_text(a[name], b[name])}")
    print(f"differing lines: {differing} of {len(lines)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the confdyn package")
    ap.add_argument("--preset", action="append", dest="presets",
                    help="digest only this preset (repeatable; default: all)")
    ap.add_argument("--against", metavar="SRC",
                    help="print only the lines that differ from the package in "
                         "SRC, with how far their outputs are apart")
    args = ap.parse_args(argv)
    print(machine_line(), file=sys.stderr, flush=True)
    sys.path.insert(0, args.src)
    from confdyn import cli
    todo = runs(cli, args.presets or sorted(cli._PRESETS))
    lines = []
    for run in todo:
        lines.append(digest_run(cli.main, *run)[0])
        if args.against is None:
            print(lines[-1], flush=True)
    return 0 if args.against is None else _against(args, todo, lines)


if __name__ == "__main__":
    sys.exit(main())
