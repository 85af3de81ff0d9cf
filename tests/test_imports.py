"""Every name a noisylab module imports is used in that module, every
public module-level function is read by the program or a demo, only
`losses` reads the log clamp, and the transition-mixing kernel is only in
`losses`.

Stdlib-only stand-ins for a linter's unused-import and dead-code checks:
they parse each module under src/noisylab/ (the package __init__
re-exports, so the import check skips it) and collect every name an
import statement binds or a top-level def defines, then every name the
code reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# one-row forms that only the acceptance gate calls, beside their batched
# replacements
UNREAD_ALLOWED = ["backward_corrected", "grad_check", "has_primitive_value",
                  "mae_grad_logits"]


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


def unread_functions(defining, reading):
    """The public module-level functions the `defining` sources define
    that no `reading` source reads, by name or as an attribute, outside
    the function's own def."""
    defined = {node.name for source in defining
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    read = set()
    for source in reading:
        for top in ast.parse(source).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute)}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
            read |= names
    return sorted(defined - read)


def test_finds_an_unread_function():
    module = ("def calls_itself(n):\n    return calls_itself(n - 1)\n"
              "def stored():\n    pass\n"
              "def valued():\n    pass\n"
              "def by_attribute():\n    pass\n"
              "def _private():\n    pass\n"
              "stored = 1\nhandlers = [valued]\n")
    demo = "import m\nm.by_attribute()\n"
    assert unread_functions([module], [module, demo]) == ["calls_itself",
                                                         "stored"]
    assert unread_functions([module], [module]) == ["by_attribute",
                                                    "calls_itself", "stored"]


def test_every_public_function_is_read():
    # a function that only tests call is a second form of something the
    # program already does; the allowed ones are the acceptance gate's
    src = [p.read_text(encoding="utf-8")
           for p in sorted(PACKAGE.glob("*.py"))]
    demos = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "demos").glob("*.py"))]
    assert demos
    assert unread_functions(src, src + demos) == UNREAD_ALLOWED


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
