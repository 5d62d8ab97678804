"""Every import in the library is used (stdlib-only AST scan).

``__init__.py`` is exempt: its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bipencil"


def unused_imports(source: str):
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names read only inside string annotations such as ``mode: "Mode"``
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from fractions import Fraction as F\n"
           "def f(x: 'F'):\n"
           "    return sys.argv\n")
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports_in_library():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert paths
    found = {}
    for path in paths:
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    assert found == {}
