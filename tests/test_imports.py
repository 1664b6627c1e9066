"""Every module of the package, and every test module, uses each name it imports.

An import that a simplification leaves behind is dead code, and for a name
a module imports so that callers can be counted through it (``from .training
import accuracy`` in ``nnprune.pruning``), an unused import also means that
the call site it served is gone.  ``from __future__`` imports are
directives, so they are exempt.  ``__init__.py`` imports only to re-export,
so there the rule is that its imports and ``__all__`` name the same names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "nnprune"


def imported_names(tree: ast.Module) -> list[str]:
    """The names ``tree`` binds by import, ``__future__`` aside, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported_names(tree) if name not in used]


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


def unused_in(directory: Path) -> dict[str, list[str]]:
    """Each module of ``directory`` but ``__init__.py`` that imports a name
    it never reads, with those names."""
    modules = sorted(p for p in directory.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    return {name: names for name, names in unused.items() if names}


def test_no_module_imports_a_name_it_never_uses():
    assert unused_in(SRC) == {}


def test_no_test_module_imports_a_name_it_never_uses():
    assert unused_in(TESTS) == {}


def test_package_exports_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(exported) > 40
    assert sorted(imported_names(tree)) == sorted(exported)
