"""Outside-in tracing for the per-layer numbers.

The tracer wraps public functions of ``bipencil`` (and the private names the
stages call) at the module boundaries below.  It replaces every module global
of the package that refers to a target function, so a call is caught wherever
the caller looks the name up: ``mat_rank`` and ``nullspace`` reach the kernels
through ``bipencil.exactlin`` globals, and ``analyzer._kronecker_spot_check``
calls its own ``bipencil.analyzer`` copies of ``evaluate_pencil`` and
``compute_spectrum``.  Spans (name, start, end, parent, job) and the probe
values live in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import statistics
import time
from fractions import Fraction

import bipencil
from bipencil.scalars import QQi

# (module, function, span name)
TARGETS = [
    ("io", "load_pencil_file", "io.load"),
    ("io", "dump_canonical", "io.dump"),
    ("toda", "toda_pencil", "toda.pencil_build"),
    ("toda", "toda_spectrum_via_lax", "toda.lax_oracle"),
    ("analyzer", "analyze_point", "analyzer.analyze_point"),
    ("analyzer", "_kronecker_spot_check", "analyzer.spot_check"),
    ("tensorfield", "evaluate_pencil", "tensorfield.evaluate_pencil"),
    ("pencil", "pencil_rank_corank", "pencil.rank_corank"),
    ("pencil", "compute_core", "pencil.core"),
    ("pencil", "compute_spectrum", "pencil.spectrum"),
    ("pencil", "is_diagonalizable", "pencil.diagonalizable"),
    ("pencil", "regular_parameters", "pencil.regular_parameters"),
    ("pencil", "rank_at", "pencil.rank_at"),
    ("pencil", "recursion_operator", "pencil.recursion_operator"),
    ("linearization", "linearize", "linearization.linearize"),
    ("roots", "root_decomposition", "roots.root_decomposition"),
    ("roots", "is_nondegenerate_linear", "roots.nondegenerate"),
    ("roots", "classify", "roots.classify"),
    ("jk", "jk_invariants", "jk.jk_invariants"),
    ("jk", "_jordan_sizes_at", "jk.jordan_sizes"),
    ("liealg", "matrix_is_semisimple", "liealg.semisimple_check"),
    ("exactlin", "mat_rank_exact", "exactlin.rank_exact"),
    ("exactlin", "svd_rank", "exactlin.rank_float"),
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "nullspace_exact", "exactlin.nullspace_exact"),
    ("exactlin", "nullspace_float", "exactlin.nullspace_float"),
    ("exactlin", "eigenvalues", "exactlin.eigenvalues"),
]
EXACT_KERNELS = ("exactlin.rank_exact", "exactlin.rref", "exactlin.nullspace_exact")
RANK_KERNELS = ("exactlin.rank_exact", "exactlin.rank_float")
FLOAT_KERNELS = ("exactlin.rank_float", "exactlin.nullspace_float")
ROOT = "cli.main"

# span record fields
NAME, START, END, PARENT, JOB, PROBE = range(6)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, QQi):
        return max(_bits(x.re), _bits(x.im))
    return 0


def _matrix_probe(args):
    M = args[0]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    return (rows, cols, max((_bits(x) for row in M for x in row), default=0))


def _probe_result(name, result):
    if name == "pencil.regular_parameters":
        return len(result)
    if name == "pencil.spectrum":
        return len(result.entries)
    if name == "exactlin.eigenvalues":
        exact_eigs, float_eigs = result
        return len(exact_eigs) + len(float_eigs)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.job = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        matrix_probe = name in EXACT_KERNELS

        def traced(*args, **kwargs):
            probe = _matrix_probe(args) if matrix_probe else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job, probe])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][START] = start
                spans[idx][END] = end
            if not matrix_probe:
                spans[idx][PROBE] = _probe_result(name, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"bipencil.{m.name}")
                   for m in pkgutil.iter_modules(bipencil.__path__)]
        for mod_name, fn_name, span in TARGETS:
            original = getattr(importlib.import_module(f"bipencil.{mod_name}"), fn_name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path, jobs):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "probe"],
                       "jobs": jobs, "spans": self.spans}, fh)


def pass_metrics(spans, base, exact_jobs, n_jobs, warnings):
    """Per-layer metrics of one traced pass.

    ``spans`` holds exactly the spans of the pass, parents before children,
    and begins at index ``base`` of the tracer's list.  ``exact_jobs`` is the
    set of job ids run in exact mode; ``warnings`` counts report warnings.  A
    time is the total duration of a span name, not counting spans nested in a
    span of the same name.
    """
    above = []          # names of each span's ancestors
    children = [0.0] * len(spans)
    calls, secs = {}, {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        names = frozenset() if p < 0 else above[p - base] | {spans[p - base][NAME]}
        above.append(names)
        dur = s[END] - s[START]
        if p >= 0:
            children[p - base] += dur
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        if s[NAME] not in names:
            secs[s[NAME]] = secs.get(s[NAME], 0.0) + dur

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p - base][NAME] if p >= 0 else None

    def probes(name):          # a call that raised has no result probe
        return [s[PROBE] for s in spans if s[NAME] == name and s[PROBE] is not None]

    job_s = secs.get(ROOT, 0.0)
    rank_exact = probes("exactlin.rank_exact")
    exact_probes = [s[PROBE] for s in spans if s[NAME] in EXACT_KERNELS]
    reg_attempts = sum(1 for i, s in enumerate(spans) if s[NAME] == "pencil.rank_at"
                       and parent_name(i) == "pencil.regular_parameters")
    exactlin_s = sum(s[END] - s[START] for i, s in enumerate(spans)
                     if s[NAME].startswith("exactlin.")
                     and not any(n.startswith("exactlin.") for n in above[i]))
    analyze_s = secs.get("analyzer.analyze_point", 0.0)
    self_s = [s[END] - s[START] - children[i] for i, s in enumerate(spans)]
    m = {
        "exactlin.rank_exact.calls": len(rank_exact),
        "exactlin.rank_exact.s": secs.get("exactlin.rank_exact", 0.0),
        "exactlin.rank_exact.max_dim": max((max(p[:2]) for p in rank_exact), default=0),
        "exactlin.rank_exact.cells": sum(p[0] * p[1] for p in rank_exact),
        "exactlin.rref.calls": calls.get("exactlin.rref", 0),
        "exactlin.rref.s": secs.get("exactlin.rref", 0.0),
        "exactlin.nullspace_exact.calls": calls.get("exactlin.nullspace_exact", 0),
        "exactlin.max_bits": max((p[2] for p in exact_probes), default=0),
        "exactlin.share": exactlin_s / job_s if job_s else 0.0,
        "exactlin.rank_float.calls": calls.get("exactlin.rank_float", 0),
        "exactlin.rank_float.s": secs.get("exactlin.rank_float", 0.0),
        "exactlin.nullspace_float.calls": calls.get("exactlin.nullspace_float", 0),
        "exactlin.eigenvalues.calls": calls.get("exactlin.eigenvalues", 0),
        "exactlin.eigenvalues.s": secs.get("exactlin.eigenvalues", 0.0),
        "liealg.semisimple_checks": calls.get("liealg.semisimple_check", 0),
        "exactlin.exact_fallbacks": sum(1 for s in spans
                                        if s[NAME] in FLOAT_KERNELS and s[JOB] in exact_jobs),
        "exactlin.rank_calls_per_job": sum(calls.get(k, 0) for k in RANK_KERNELS) / n_jobs,
        "pencil.regular_parameters.yield": (
            sum(probes("pencil.regular_parameters")) / reg_attempts if reg_attempts else 0.0),
        "pencil.recursion_operator.calls": calls.get("pencil.recursion_operator", 0),
        "pencil.spectrum.candidates": sum(
            s[PROBE] for i, s in enumerate(spans) if s[NAME] == "exactlin.eigenvalues"
            and s[PROBE] is not None and parent_name(i) == "pencil.spectrum"),
        "pencil.spectrum.entries": sum(probes("pencil.spectrum")),
        "pencil.diagonalizable.s": secs.get("pencil.diagonalizable", 0.0),
        "analyzer.spot_check.s": secs.get("analyzer.spot_check", 0.0),
        "analyzer.spot_check.share": (secs.get("analyzer.spot_check", 0.0) / analyze_s
                                      if analyze_s else 0.0),
        "analyzer.analyze_point.s": analyze_s,
        "analyzer.self_s": sum(t for t, s in zip(self_s, spans)
                               if s[NAME] == "analyzer.analyze_point"),
        "analyzer.warnings_per_job": warnings / n_jobs,
        "tensorfield.evaluate_pencil.calls": calls.get("tensorfield.evaluate_pencil", 0),
        "tensorfield.evaluate_pencil.s": secs.get("tensorfield.evaluate_pencil", 0.0),
        "toda.pencil_build.s": secs.get("toda.pencil_build", 0.0),
        "toda.lax_oracle.s": secs.get("toda.lax_oracle", 0.0),
        "linearization.linearize.calls": calls.get("linearization.linearize", 0),
        "linearization.linearize.s": secs.get("linearization.linearize", 0.0),
        "roots.root_decomposition.s": secs.get("roots.root_decomposition", 0.0),
        "roots.nondegenerate.s": secs.get("roots.nondegenerate", 0.0),
        "roots.classify.s": secs.get("roots.classify", 0.0),
        "jk.jk_invariants.s": secs.get("jk.jk_invariants", 0.0),
        "jk.jordan_sizes.s": secs.get("jk.jordan_sizes", 0.0),
        "jk.jordan_sizes.rank_calls": sum(1 for i, s in enumerate(spans)
                                          if s[NAME] in RANK_KERNELS
                                          and "jk.jordan_sizes" in above[i]),
        "io.load_s": secs.get("io.load", 0.0),
        "io.dump_s": secs.get("io.dump", 0.0),
    }
    for stage in ("rank_corank", "core", "spectrum"):
        m[f"pencil.{stage}.calls"] = calls.get(f"pencil.{stage}", 0)
        m[f"pencil.{stage}.s"] = secs.get(f"pencil.{stage}", 0.0)
    return m, job_s, sum(self_s)


def combine_passes(per_pass):
    """Counts from the first pass (they repeat exactly); times as medians."""
    first = per_pass[0]
    return {k: (statistics.median(p[k] for p in per_pass) if isinstance(v, float) else v)
            for k, v in first.items()}
