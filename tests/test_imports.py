"""Every name a ``gqt`` module imports at module level is used in that module.

Deletions tend to leave imports behind; this catches them.  ``__init__``
re-exports its imports, and ``from __future__`` imports are directives,
so both are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gqt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return [name for name in names if name not in used]


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\nfrom typing import Dict, List\n"
              "import os.path\nimport re as regex\nx: List[int] = [regex.I]\n")
    assert unused_imports(source) == ["Dict", "os"]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "errors", "field", "geocode", "kernel",
                                         "linalg", "nogo", "protocols"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
