"""Imports of the library, by stdlib-only AST scans, and what a run loads.

Every import is used (``__init__.py`` is exempt: its imports are the
package's public re-exports), and every module imports only the standard
library, numpy and bipencil itself: scipy, sympy and mpmath are test-only
oracles.  Only ``exactlin`` imports numpy, and lazily: the other modules read
its ``np``.  Importing numpy costs more than a whole exact analysis at the
benchmark's sizes, and one stray ``import numpy`` would load it for every
run again; so an exact run, checked in a fresh process, never loads it.
Every module-level definition, and every method of a library class, is used
by the library itself or by the benchmark; one that only tests use belongs
in ``tests/oracles``.  A module-level definition is used by its name,
or as an attribute of its module (``algebras.so3``); an attribute of the same
name read off anything else does not count.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
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


def imports_numpy(source: str) -> bool:
    """Whether a file imports numpy: by an import statement, or by naming it
    to a call, as a lazy binding does."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call):
            names = [arg.value for arg in node.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_scanner_finds_numpy_imports():
    assert imports_numpy("import math, numpy as np\n")
    assert imports_numpy("def f():\n    from numpy.linalg import svd\n")
    assert imports_numpy("np = _lazy_import('numpy')\n")
    assert not imports_numpy("from .exactlin import np\nx = np.zeros(3)\n")
    assert not imports_numpy('"""numpy is bound lazily."""\nimport numbers\n')


def test_only_exactlin_imports_numpy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert [p.name for p in paths if imports_numpy(p.read_text())] == ["exactlin.py"]


EXACT_RUNS = """
import contextlib, io, json, sys, time

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

start = time.perf_counter()
from bipencil.cli import main
with open(sys.argv[1]) as fh:
    exact, float_job = json.load(fh)
codes = [run(argv) for argv in exact]
seconds = time.perf_counter() - start
loaded = "numpy.linalg" in sys.modules
float_code = run(float_job)
print(json.dumps([codes, seconds, loaded, float_code, "numpy.linalg" in sys.modules]))
"""


def test_exact_runs_never_load_numpy(tmp_path):
    # every exact-mode input of tools/jobdiff.py's further reports at seed 0
    # (analyze, toda, jk and linear, their input errors included) runs in one
    # fresh process without numpy; a float job then loads it
    root = PACKAGE.parent.parent
    spec = importlib.util.spec_from_file_location("jobdiff", root / "tools" / "jobdiff.py")
    jobdiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobdiff)
    exact, floats = [], []
    for key, argv in jobdiff.further_jobs(str(tmp_path)):
        seed = re.search(r" seed=(\d+)", key)
        if seed is None or seed.group(1) == "0":
            mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "exact"
            (exact if mode == "exact" else floats).append((key, argv))
    # the lifting of roots mod p, and each command, are among them
    assert any("so31_shift" in key for key, _ in exact)
    assert {argv[0] for _, argv in exact} == {"analyze", "toda", "jk", "linear", "catalog"}
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([[argv for _, argv in exact], floats[0][1]]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", EXACT_RUNS, str(jobs)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, check=True)
    codes, seconds, loaded, float_code, float_loaded = json.loads(proc.stdout)
    assert len(codes) == len(exact) and 0 in codes
    assert not loaded and seconds <= 10
    assert float_code == 0 and float_loaded


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
