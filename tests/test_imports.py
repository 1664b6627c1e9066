"""Every module of the package uses each name it imports.

An import that a simplification leaves behind is dead code, and for a name
a module imports so that callers can be counted through it (``from .training
import accuracy`` in ``nnprune.pruning``), an unused import also means that
the call site it served is gone.  ``__init__.py`` re-exports by design, and
``from __future__`` imports are directives, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nnprune"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import numpy as np\nnp.zeros(1)\n", []),
        ("import os.path\nos.sep\n", []),
        ("from .pruning import PruneTrace, train\ntrain()\n", ["PruneTrace"]),
        ("from __future__ import annotations\nimport json\n", ["json"]),
        ("def f():\n    from .cli import main\n", ["main"]),
    ],
)
def test_unused_imports_finds_names_never_read(source, unused):
    assert unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
