"""Count the independently settable values of the confdyn package.

Three kinds of value can be set without editing the package, and each is
counted from the source text alone (nothing is imported):

    defaults   parameters with a default value, of every function, method
               and lambda
    fields     annotated fields of @dataclass classes
    schema     keys of the command line's config schema, cli._SCHEMA

and the script prints one line per kind and their total:

    defaults <count>
    fields <count>
    schema <count>
    total <count>

Usage:

    python tools/settable_values.py [--src /path/to/src]

Without --src the sources next to this script are used.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def count(tree: ast.Module, module: str) -> dict:
    """The three counts of one parsed module."""
    out = {"defaults": 0, "fields": 0, "schema": 0}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out["defaults"] += len(node.args.defaults)
            out["defaults"] += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif (module == "cli" and isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "_SCHEMA" for t in node.targets)):
            out["schema"] += sum(len(sec.keys) for sec in node.value.values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the confdyn package")
    args = ap.parse_args(argv)
    totals = {"defaults": 0, "fields": 0, "schema": 0}
    for path in sorted((Path(args.src) / "confdyn").glob("*.py")):
        counts = count(ast.parse(path.read_text(), str(path)), path.stem)
        for kind, n in counts.items():
            totals[kind] += n
    for kind, n in totals.items():
        print(f"{kind} {n}")
    print(f"total {sum(totals.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
