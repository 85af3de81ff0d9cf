"""Every name a noisylab module imports is used in that module, only
`losses` reads the log clamp, and the transition-mixing kernel is only in
`losses`.

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


def reads_log_clamp(source):
    """Whether the source imports or reads LOG_CLAMP, by name or as an
    attribute."""
    return any(isinstance(node, ast.Name) and node.id == "LOG_CLAMP"
               or isinstance(node, ast.Attribute) and node.attr == "LOG_CLAMP"
               or isinstance(node, ast.alias) and node.name == "LOG_CLAMP"
               for node in ast.walk(ast.parse(source)))


def test_finds_a_log_clamp_read():
    assert reads_log_clamp("from .losses import LOG_CLAMP as c\n")
    assert reads_log_clamp("from . import losses\nx = losses.LOG_CLAMP\n")
    assert not reads_log_clamp("from .losses import loss_vector\n")


def test_only_losses_reads_the_log_clamp():
    # every other module scores through losses.loss_vector or
    # losses.kl_to_targets, so the clamp lives in one place
    readers = [p.stem for p in sorted(PACKAGE.glob("*.py"))
               if reads_log_clamp(p.read_text(encoding="utf-8"))]
    assert readers == ["losses"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert MODULES
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_from(source, module):
    """The names a source binds from `from .<module> import ...`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names}


def test_transition_mixing_lives_in_losses():
    # the forward correction, the noise-adaptation layer and the annotator
    # confusions all mix through losses.mixed_ce; model holds no noise
    # layer, and annotators takes only the SGD core from model
    model = (PACKAGE / "model.py").read_text(encoding="utf-8")
    annotators = (PACKAGE / "annotators.py").read_text(encoding="utf-8")
    assert "mixed_ce" not in imports_from(model, "losses")
    assert not [node.name for node in ast.walk(ast.parse(model))
                if isinstance(node, ast.FunctionDef) and "noise" in node.name]
    assert imports_from(annotators, "model") == {"fit"}
    assert "mixed_ce" in imports_from(annotators, "losses")
