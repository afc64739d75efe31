"""Every name a confdyn module imports is used in it (no linter is assumed)."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "confdyn"


def _unused_imports(path: Path) -> list:
    """(line, name) of each imported name the module never reads; a name
    whose line carries '# noqa: F401' is kept on purpose and exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):   # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_no_unused_import(module):
    assert _unused_imports(_SRC / module) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\nimport numpy as np\n"
                    "from math import (pi, tau,  # noqa: F401\n    e)\n"
                    "__all__ = ['pi']\nx = np.zeros(1)\n")
    assert _unused_imports(path) == [(2, "os"), (5, "e")]
