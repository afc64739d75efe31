"""Digest every command x preset x format run of the confdyn command line.

Runs {simulate, certify, kg, orbit} x every preset x {csv, json} at seed 7
in this process through ``confdyn.cli.main``, each into a fresh temporary
directory, and prints one line per run:

    <command> <preset> <format> exit=<code> stdout=<sha256> <file>=<sha256> ...

with the output files in sorted order.  stderr is not digested.  Each
preset with a [certify] section adds one certify run at the benchmark's
certify.count=96, whose line names ``count=96`` in place of a format.
Comparing
two checkouts is one diff:

    python tools/output_digests.py --src /path/to/a/src > a.txt
    python tools/output_digests.py --src /path/to/b/src > b.txt
    diff a.txt b.txt

or, to also see how far the differing outputs are apart,

    python tools/output_digests.py --src /path/to/a/src --against /path/to/b/src

which prints only the lines that differ, each followed by one line per
differing output (stdout included): the largest absolute and relative
difference of its numbers, taken in order, and whether the text around the
numbers is equal; then a count of the differing lines.  Each differing run
is repeated for both checkouts in its own process, so the two packages
never share one interpreter; these processes write no bytecode into either
checkout.

Without --src the sources next to this script are used.
"""

from __future__ import annotations

import argparse
import contextlib
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

# a number of a csv, json or stdout line; digits inside a name (Q1, run_0)
# are no number
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|inf|NaN|Infinity)(?![\w.])")
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from confdyn.cli import main; sys.exit(main(sys.argv[2:]))")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def runs(cli, presets) -> list:
    """(command, preset, label, extra arguments) of every digested run."""
    out = []
    for preset in presets:
        out += [(command, preset, fmt, ["--format", fmt])
                for command in COMMANDS for fmt in FORMATS]
        if "certify" in cli.preset_config(preset):
            out.append(("certify", preset, f"count={CERTIFY_COUNT}",
                        ["--set", f"certify.count={CERTIFY_COUNT}"]))
    return out


def _argv(command: str, preset: str, extra: list, out: Path) -> list:
    return [command, "--preset", preset, "--out-dir", str(out), *extra,
            "--seed", str(SEED)]


def digest_run(main, command: str, preset: str, label: str, extra: list) -> str:
    """One output line: the run's exit code and the digests of its stdout
    and of each file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(_argv(command, preset, extra, out))
            except Exception as exc:        # a traceback would exit 1
                code = f"raised-{type(exc).__name__}"
        digests = [f"{p.relative_to(out).as_posix()}={_sha(p.read_bytes())}"
                   for p in sorted(out.rglob("*")) if p.is_file()]
    return " ".join([command, preset, label, f"exit={code}",
                     f"stdout={_sha(stdout.getvalue().encode())}"] + digests)


def _outputs(src: str, command: str, preset: str, extra: list, out: Path) -> dict:
    """Run one command of the package in src in a fresh process; its stdout
    and output files as {name: text}."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src, *_argv(command, preset, extra, out)],
        capture_output=True, text=True)
    files = {p.relative_to(out).as_posix(): p.read_text()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"stdout": proc.stdout, **files}


def compare_text(a: str, b: str) -> str:
    """How two outputs differ: the largest absolute and relative difference
    of their numbers, paired in order, and whether the rest is equal."""
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    text = "equal" if _NUMBER.sub("#", a) == _NUMBER.sub("#", b) else "differs"
    if len(na) != len(nb):
        return f"numbers={len(na)}/{len(nb)} text={text}"
    max_abs = max_rel = 0.0
    for x, y in zip(map(float, na), map(float, nb)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / max(abs(x), abs(y)))
    return f"max_abs={max_abs:.3g} max_rel={max_rel:.3g} text={text}"


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
    sys.path.insert(0, args.src)
    from confdyn import cli
    todo = runs(cli, args.presets or sorted(cli._PRESETS))
    lines = []
    for run in todo:
        lines.append(digest_run(cli.main, *run))
        if args.against is None:
            print(lines[-1], flush=True)
    return 0 if args.against is None else _against(args, todo, lines)


if __name__ == "__main__":
    sys.exit(main())
