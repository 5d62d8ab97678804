"""The functions the benchmark's tracer wraps must exist under their names."""

import ast
import importlib
import importlib.util
import os
import random
import sys

from oracles import corpus

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


def test_the_benchmark_copies_of_the_jk_inputs_match_the_corpus(monkeypatch):
    # perfbench/workloads.py keeps its own JK block lists, real pairs and
    # congruences; they must give the corpus's, draw for draw
    path = os.path.join(os.path.dirname(TRACER), "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.JK_PAIRS == corpus.JK_PAIRS
    for blocks in corpus.JK_PAIRS:
        p, q = workloads._real_jk_pair(blocks), corpus.realified(blocks)
        assert (p.A0, p.Ainf) == (q.A0, q.Ainf)
        rngs = random.Random(f"jk:{p.dim}"), random.Random(f"jk:{p.dim}")
        for _ in range(workloads.JK_CONGRUENCES):
            assert workloads._unimodular(p.dim, rngs[0]) == corpus.unit_lower_upper(p.dim, rngs[1])
