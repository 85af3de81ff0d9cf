"""Every name a noisylab module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import check: it parses each
module under src/noisylab/ (the package __init__ re-exports, so it is
skipped) and collects every name an import statement binds, then every
name the module reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .x import a, b\n"
              "print(np.pi, a)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert MODULES
    assert unused_imports(path.read_text(encoding="utf-8")) == []
