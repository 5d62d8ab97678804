"""The functions the benchmark's tracer wraps must exist under their names."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def tracer_targets():
    """The TARGETS list of perfbench/tracer.py, read from its source without running it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read(), TRACER)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    missing = [f"{module}.{name}" for module, name, _span in targets
               if not callable(getattr(importlib.import_module(f"bipencil.{module}"),
                                       name, None))]
    assert targets and missing == []
