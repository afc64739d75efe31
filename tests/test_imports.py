"""Every name a confdyn module imports is used in it (no linter is assumed),
and a name kept unread on purpose is one the benchmark's tracer wraps."""

import ast
import importlib.util
from functools import cache
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "confdyn"
_BENCH_TRACE = _ROOT / "perfbench" / "bench_trace.py"


def _unused_imports(path: Path, kept: bool = False) -> list:
    """(line, name) of each imported name the module never reads; a name
    whose line carries '# noqa: F401' is kept on purpose and exempt.  With
    kept=True, the exempt names the module never reads instead."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if ("# noqa: F401" in lines[alias.lineno - 1]) is kept:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):   # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unwrapped_kept_imports(path: Path, module: str, spans: dict) -> list:
    """(line, name) of each kept, unread import of confdyn.<module> that no
    span of perfbench/bench_trace.py wraps in that module."""
    wrapped = {place for group in spans.values() for place in group}
    return [(line, name) for line, name in _unused_imports(path, kept=True)
            if (f"confdyn.{module}", name) not in wrapped]


@cache
def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_trace", _BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace.SPANS


@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_no_unused_import(module):
    assert _unused_imports(_SRC / module) == []


@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_every_kept_import_is_wrapped(module):
    # a kept import outlives its span: it goes when the span goes
    path = _SRC / module
    assert _unwrapped_kept_imports(path, path.stem, _spans()) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\nimport numpy as np\n"
                    "from math import (pi, tau,  # noqa: F401\n    e)\n"
                    "__all__ = ['pi']\nx = np.zeros(1)\n")
    assert _unused_imports(path) == [(2, "os"), (5, "e")]


def test_a_stale_kept_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from math import (pi, tau,  # noqa: F401\n    e)\n"
                    "from os import sep, getcwd  # noqa: F401\n"
                    "x = pi + e\n")
    assert _unused_imports(path, kept=True) == [(1, "tau"), (3, "getcwd"), (3, "sep")]
    spans = {"m.tau": [("confdyn.m", "tau")], "other.sep": [("confdyn.other", "sep")],
             "m.getcwd": [("confdyn.m", "getcwd")]}
    # tau is wrapped in m, sep only in another module
    assert _unwrapped_kept_imports(path, "m", spans) == [(3, "sep")]
    del spans["m.getcwd"]
    assert _unwrapped_kept_imports(path, "m", spans) == [(3, "getcwd"), (3, "sep")]
