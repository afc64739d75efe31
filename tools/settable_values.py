"""Count the independently settable values of the confdyn package.

Four kinds of value can be set without editing the package, and each is
counted from the source text alone (nothing is imported):

    defaults   parameters with a default value, of every function, method
               and lambda
    fields     annotated fields of @dataclass classes
    schema     keys of the command line's config schema, cli._SCHEMA
    config     config defaults written as literals: those of cli._SCHEMA
               (a default read from another table, such as EvolveOptions'
               fields, is counted there) and the kg mode constants of
               cli._KG_SOLUTIONS

and the script prints one line per kind and their total:

    defaults <count>
    fields <count>
    schema <count>
    config <count>
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


KINDS = ("defaults", "fields", "schema", "config")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _assigns(node, module: str, name: str) -> bool:
    return (module == "cli" and isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == name for t in node.targets))


def count(tree: ast.Module, module: str) -> dict:
    """The four counts of one parsed module."""
    out = dict.fromkeys(KINDS, 0)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out["defaults"] += len(node.args.defaults)
            out["defaults"] += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif _assigns(node, module, "_SCHEMA"):
            out["schema"] += sum(len(sec.keys) for sec in node.value.values)
            # a key is (parser, default); an older schema gave a parser alone
            out["config"] += sum(_literal(key.elts[1]) for sec in node.value.values
                                 for key in sec.values if isinstance(key, ast.Tuple))
        elif _assigns(node, module, "_KG_SOLUTIONS"):
            out["config"] += sum(_literal(v) for sol in node.value.values
                                 for v in sol.values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the confdyn package")
    args = ap.parse_args(argv)
    totals = dict.fromkeys(KINDS, 0)
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
