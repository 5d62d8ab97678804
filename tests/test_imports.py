"""Imports of the library, by stdlib-only AST scans.

Every import is used (``__init__.py`` is exempt: its imports are the
package's public re-exports), and every module imports only the standard
library, numpy and bipencil itself: scipy, sympy and mpmath are test-only
oracles.  Every module-level definition, and every method of a library class,
is used by the library itself or by the benchmark; one that only tests use
belongs in ``tests/oracles``.  A module-level definition is used by its name,
or as an attribute of its module (``algebras.so3``); an attribute of the same
name read off anything else does not count.
"""

import ast
import sys
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


ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "bipencil"}


def foreign_imports(source: str):
    """Top-level modules imported from outside the standard library, numpy
    and bipencil (relative imports are bipencil's own)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return found


def test_scanner_flags_foreign_imports():
    src = ("from __future__ import annotations\n"
           "import math, numpy as np\n"
           "from fractions import Fraction\n"
           "from .scalars import QQi\n"
           "from bipencil.errors import PreconditionError\n"
           "def f():\n"
           "    import sympy\n"
           "    from scipy.linalg import svd\n"
           "    import mpmath.libmp, os.path\n")
    assert foreign_imports(src) == [(7, "sympy"), (8, "scipy.linalg"), (9, "mpmath.libmp")]


def test_library_imports_only_stdlib_and_numpy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {p.name: foreign_imports(p.read_text()) for p in paths}
    assert {name: imports for name, imports in found.items() if imports} == {}


def defined_names(source: str):
    """Functions and classes defined at module level, with their lines."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


# methods that a base class outside the library calls
HOOKS = {"_ArgumentParser.error"}      # argparse reports a usage error through it


def defined_methods(source: str):
    """Methods of module-level classes other than dunder methods and HOOKS, as
    (line, "Class.method", method)."""
    return [(node.lineno, f"{cls.name}.{node.name}", node.name)
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and f"{cls.name}.{node.name}" not in HOOKS]


def attribute_names(source: str):
    """Names a file reads as an attribute, as in ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def referenced_names(source: str):
    """Identifiers a file reads: names, imported names, strings that are
    identifiers (such as a tracer's target table), and "module.name" for an
    attribute read off a name or an attribute, as in ``module.name`` or
    ``package.module.name``."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            owner = node.value.id if isinstance(node.value, ast.Name) else node.value.attr
            refs.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.add(node.value)
    return refs


def dead_definitions(files: dict):
    """(path, line, name) of each module-level definition in a ``src/`` file of
    ``files`` (path: source) that no ``src/`` file other than an
    ``__init__.py`` and no ``perfbench/`` file reads by its name or as an
    attribute of its module, and of each method of a class there that no such
    file reads as an attribute: re-exports and tests are not uses."""
    users = [source for path, source in files.items()
             if path.startswith("perfbench/")
             or (path.startswith("src/") and not path.endswith("__init__.py"))]
    refs = set().union(*map(referenced_names, users))
    attrs = set().union(*map(attribute_names, users))
    return sorted([(path, line, name) for path, source in files.items()
                   if path.startswith("src/")
                   for line, name in defined_names(source)
                   if name not in refs and f"{Path(path).stem}.{name}" not in refs]
                  + [(path, line, name) for path, source in files.items()
                     if path.startswith("src/")
                     for line, name, method in defined_methods(source) if method not in attrs])


def test_scanner_flags_dead_definitions():
    files = {"src/a.py": ("def used(): return helper()\n"
                          "def helper(): return 1\n"
                          "def traced(): pass\n"
                          "def exported(): pass\n"
                          "def dead(): return 2\n"
                          "class Dead: pass\n"
                          "class Used:\n"
                          "    def __init__(self): self.called()\n"
                          "    def called(self): pass\n"
                          "    def benched(self): pass\n"
                          "    def dead_method(self): pass\n"
                          "    def named(self): pass\n"
                          "def tested(): pass\n"
                          "named = 1\n"
                          "def shared_name(): pass\n"
                          "def by_module(): pass\n"
                          "def by_package(): pass\n"),
             "src/__init__.py": "from .a import exported\n",
             "perfbench/run.py": "from a import used\nx = Used()\nx.benched()\n"
                                 "import a, pkg.a\na.by_module()\npkg.a.by_package()\n"
                                 "x.shared_name()\n",
             "perfbench/tracer.py": "TARGETS = [('a', 'traced')]\n",
             "tests/test_a.py": "from a import tested\nassert tested() is None\n"
                                "Used().dead_method()\n"}
    assert dead_definitions(files) == [
        ("src/a.py", 4, "exported"), ("src/a.py", 5, "dead"), ("src/a.py", 6, "Dead"),
        ("src/a.py", 11, "Used.dead_method"), ("src/a.py", 12, "Used.named"),
        ("src/a.py", 13, "tested"), ("src/a.py", 15, "shared_name")]


def test_no_dead_definitions_in_library():
    root = PACKAGE.parent.parent
    files = {p.relative_to(root).as_posix(): p.read_text()
             for folder in ("src", "perfbench", "tests")
             for p in sorted((root / folder).rglob("*.py"))}
    assert any(path.startswith("perfbench/") for path in files)
    assert dead_definitions(files) == []
