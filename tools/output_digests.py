"""Digest every command x preset x format run of the confdyn command line.

Runs {simulate, certify, kg, orbit} x every preset x {csv, json} at seed 7
in this process through ``confdyn.cli.main``, each into a fresh temporary
directory, and prints one line per run:

    <command> <preset> <format> exit=<code> stdout=<sha256> <file>=<sha256> ...

with the output files in sorted order.  stderr is not digested.  Comparing
two checkouts is one diff:

    python tools/output_digests.py --src /path/to/a/src > a.txt
    python tools/output_digests.py --src /path/to/b/src > b.txt
    diff a.txt b.txt

Without --src the sources next to this script are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "certify", "kg", "orbit")
FORMATS = ("csv", "json")
SEED = 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(main, command: str, preset: str, fmt: str) -> str:
    """One output line: the run's exit code and the digests of its stdout
    and of each file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([command, "--preset", preset, "--out-dir", str(out),
                             "--format", fmt, "--seed", str(SEED)])
            except Exception as exc:        # a traceback would exit 1
                code = f"raised-{type(exc).__name__}"
        digests = [f"{p.relative_to(out).as_posix()}={_sha(p.read_bytes())}"
                   for p in sorted(out.rglob("*")) if p.is_file()]
    return " ".join([command, preset, fmt, f"exit={code}",
                     f"stdout={_sha(stdout.getvalue().encode())}"] + digests)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the confdyn package")
    ap.add_argument("--preset", action="append", dest="presets",
                    help="digest only this preset (repeatable; default: all)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from confdyn import cli
    for preset in args.presets or sorted(cli._PRESETS):
        for command in COMMANDS:
            for fmt in FORMATS:
                print(digest_run(cli.main, command, preset, fmt), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
