"""Inputs and reference answers for the benchmark workloads.

Every job is one ``bipencil.cli.main(argv)`` call.  The inputs of a workload
depend only on its seed: pencil files are written into a work directory, and
points, sampling seeds and congruences are drawn from ``random.Random`` seeded
with the workload name and seed.  Import this module only after ``src`` is on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from bipencil.catalog import catalog
from bipencil.cli import main as cli_main
from bipencil.exactlin import mat_mul
from bipencil.io import catalog_entry_to_json_dict, dump_canonical, pencil_to_json_dict
from bipencil.jk import (JordanBlock, KroneckerBlock, assemble_jk_canonical_pair,
                         congruent_pair)
from bipencil.poly import Poly
from bipencil.scalars import INF, QQi, cimag, creal
from bipencil.tensorfield import PoissonTensorField, constant_pencil
from bipencil.toda import make_singular_point, random_point, toda_spectrum_via_lax

F = Fraction
# Toda points per lattice size n, and congruences per JK pair.  A job's cost
# moves with the sampling seed the CLI gets (a Toda n=8 job by about 15%
# from one seed to the next), so a run times several inputs of each size,
# most of them of the largest size, which narrows the spread of ``wall_s``
# and ``largest_job_s`` from one workload seed to the next.
TODA_POINTS = {
    "singular-exact": {4: 2, 6: 2, 8: 2},
    "regular-exact": {4: 2, 6: 2, 8: 3},
    "float-sweep": {4: 4, 6: 4, 8: 8},
}
SMOKE_TODA_POINTS = {2: 1}
JK_CONGRUENCES = 4
# CLI sampling seeds of each catalog entry in float-sweep: a fixed sweep, the
# same for every workload seed.  Float crashes depend on the sampling seed
# (today three entries crash at 12 of these seeds, all but 2, 3, 4 and 13),
# so a fixed sweep makes the number of failed jobs the same from one workload
# seed to the next; the workload seed still draws the Toda points and the order.
FLOAT_SAMPLING_SEEDS = {"full": range(16), "smoke": range(1)}

# Jordan-Kronecker block lists for jk-congruent, dims 5 to 16.  A Jordan block
# at a non-real lambda stands for the blocks at lambda and its conjugate, made
# real by ``_realify``.  The 13-dim pair with (1 +- 2i) blocks of size 2 is left
# out: it alone takes several seconds, longer than the rest together.
JK_PAIRS = [
    [KroneckerBlock(1), JordanBlock(F(1, 2), 1)],
    [KroneckerBlock(1), JordanBlock(QQi(F(1), F(1)), 1)],
    [KroneckerBlock(0), KroneckerBlock(2), JordanBlock(INF, 2)],
    [KroneckerBlock(1), JordanBlock(F(-2), 2), JordanBlock(INF, 1), JordanBlock(F(3), 1)],
    [KroneckerBlock(2), KroneckerBlock(1), JordanBlock(F(1, 3), 2),
     JordanBlock(QQi(F(0), F(1)), 1)],
]


@dataclass
class Job:
    name: str
    argv: list
    mode: str                      # "exact" | "float"
    kind: str                      # "analyze" | "toda" | "jk"
    expect: dict | None = None     # reference summary
    largest: bool = False          # timed into largest_job_s (Toda n=8, 16-dim JK pair)
    warmup: bool = False           # also run once, untimed, before the timed passes
    reference: Callable[[], dict] | None = None   # computes ``expect``, untimed


@dataclass
class Outcome:
    ok: bool          # exit code 0
    agree: bool       # summary equals the reference
    warned: bool      # the report carries a warning
    detail: str = ""


def run_job(argv, main=cli_main):
    """One CLI call with its output captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:         # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:          # an uncaught error ends the CLI with 1
            print(repr(exc), file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        fh.write(dump_canonical(doc))
    return path


def _catalog_expect(entry) -> dict:
    exp = entry.expected
    return {"verdict": exp.verdict, "reason": exp.degeneracy_code,
            "type": None if exp.type is None else dict(zip(("ke", "kh", "kf"), exp.type)),
            "blocks": exp.blocks}


def _catalog_jobs(workdir: str, entries, cli_seeds, mode: str) -> list:
    jobs = []
    for entry in entries:
        path = _write(os.path.join(workdir, f"{entry.name}.pencil.json"),
                      catalog_entry_to_json_dict(entry))
        for s in cli_seeds:
            jobs.append(Job(name=f"{entry.name}@{s}", kind="analyze", mode=mode,
                            argv=["analyze", "--pencil", path, f"--point={_csv(entry.point)}",
                                  "--mode", mode, "--seed", str(s)],
                            expect=_catalog_expect(entry)))
    return jobs


def _toda_argv(pt, mode: str, seed: int) -> list:
    # "--b=-3/2,..." keeps argparse from reading a negative value as an option
    return ["toda", "--n", str(pt.n), f"--a={_csv(pt.a)}", f"--b={_csv(pt.b)}",
            "--mode", mode, "--seed", str(seed)]


def _is_complex(block) -> bool:
    return isinstance(block, JordanBlock) and isinstance(block.lam, QQi) and block.lam.im != 0


def _realify(X):
    """Real form of X and conj(X), the pieces of a conjugate pair of Jordan blocks.

    The complex congruence with columns e_j + e_j' and i(e_j - e_j') takes
    diag(X, conj(X)) to [[2 Re X, -2 Im X], [-2 Im X, -2 Re X]].
    """
    re = [[2 * creal(x) for x in row] for row in X]
    im = [[-2 * cimag(x) for x in row] for row in X]
    return ([r + i for r, i in zip(re, im)]
            + [i + [-x for x in r] for r, i in zip(re, im)])


def _real_jk_pair(blocks):
    """Block-diagonal real pair of constant skew forms."""
    pieces = []
    for b in blocks:
        p = assemble_jk_canonical_pair([b])
        pieces.append((_realify(p.A0), _realify(p.Ainf)) if _is_complex(b)
                      else (p.A0, p.Ainf))
    d = sum(len(a) for a, _ in pieces)
    A = [[F(0)] * d for _ in range(d)]
    B = [[F(0)] * d for _ in range(d)]
    offset = 0
    for a, b in pieces:
        for i, (ra, rb) in enumerate(zip(a, b)):
            A[offset + i][offset:offset + len(a)] = ra
            B[offset + i][offset:offset + len(a)] = rb
        offset += len(a)
    return constant_pencil(A, B)


def _unimodular(d: int, rng: random.Random):
    """Unit lower times unit upper triangular, entries in {-1, 0, 1}: det 1."""
    L = [[F(1) if i == j else F(rng.randint(-1, 1)) if i > j else F(0) for j in range(d)]
         for i in range(d)]
    R = [[F(1) if i == j else F(rng.randint(-1, 1)) if i < j else F(0) for j in range(d)]
         for i in range(d)]
    return mat_mul(L, R)


def _jk_key(lam) -> str:
    if lam is INF:
        return "inf"
    return repr(lam) if isinstance(lam, QQi) else str(lam)


def _jk_expect(blocks) -> dict:
    kron = sorted(b.half_size for b in blocks if isinstance(b, KroneckerBlock))
    jordan: dict = {}
    for b in blocks:
        if isinstance(b, JordanBlock):
            for lam in (b.lam, b.lam.conjugate()) if _is_complex(b) else (b.lam,):
                jordan.setdefault(_jk_key(lam), []).append(b.size)
    return {"corank": len(kron), "kronecker": kron,
            "jordan": {k: sorted(v) for k, v in sorted(jordan.items())}}


def _constant_pencil_file(path: str, p) -> str:
    d = p.dim
    fields = []
    for M in (p.A0, p.Ainf):
        f = PoissonTensorField(d)
        for i in range(d):
            for j in range(i + 1, d):
                if M[i][j] != 0:
                    f.set_entry(i, j, Poly.constant(d, M[i][j]))
        fields.append(f)
    return _write(path, pencil_to_json_dict(*fields))


def _toda_expect(pt) -> dict:
    """Exact answer at a lattice point: one elliptic block per double Lax eigenvalue.

    The real periodic lattice has compact level sets, so its non-degenerate
    singularities are elliptic; the Lax matrix, independently of the pencil,
    says how many double (anti)periodic eigenvalues there are.  Exact mode
    must give this answer (singular-exact, regular-exact), and float mode is
    scored against it (float-sweep).
    """
    m = len(toda_spectrum_via_lax(pt))
    return {"verdict": "NonDegenerate" if m else "Regular", "reason": None,
            "type": {"ke": m, "kh": 0, "kf": 0} if m else None, "oracle": True}


def _toda_jobs(name, points, rng, make, mode) -> list:
    """``points[n]`` lattice points of each size n; the largest size is timed
    into ``largest_job_s``."""
    jobs = []
    for n, count in points.items():
        for k in range(count):
            pt = make(n, rng.randrange(10 ** 6))
            s = rng.randrange(10 ** 6)
            jobs.append(Job(name=f"{name}-{n}.{k}", kind="toda", mode=mode,
                            argv=_toda_argv(pt, mode, s), largest=n == max(points),
                            reference=functools.partial(_toda_expect, pt)))
    return jobs


def build(name: str, seed: int, workdir: str, size: str = "full") -> list:
    """Generate the jobs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    entries = catalog() if size == "full" else catalog()[:1]
    points = TODA_POINTS.get(name) if size == "full" else SMOKE_TODA_POINTS
    if name == "singular-exact":
        jobs = _catalog_jobs(workdir, entries, [rng.randrange(10 ** 6)], "exact")
        jobs += _toda_jobs("toda-singular", points, rng, make_singular_point, "exact")
    elif name == "regular-exact":
        jobs = _toda_jobs("toda-random", points, rng, random_point, "exact")
    elif name == "float-sweep":
        jobs = _catalog_jobs(workdir, entries, FLOAT_SAMPLING_SEEDS[size], "float")
        jobs += _toda_jobs("toda-singular", points, rng, make_singular_point, "float")
    elif name == "jk-congruent":
        jobs = []
        pairs = JK_PAIRS if size == "full" else JK_PAIRS[:1]
        for k, blocks in enumerate(pairs):
            base = _real_jk_pair(blocks)
            for c in range(JK_CONGRUENCES if size == "full" else 1):
                p = congruent_pair(base, _unimodular(base.dim, rng))
                path = _constant_pencil_file(
                    os.path.join(workdir, f"jk{k}.{c}.pencil.json"), p)
                jobs.append(Job(name=f"jk-{p.dim}.{c}", kind="jk", mode="exact",
                                argv=["jk", "--pencil", path, f"--point={_csv([0] * p.dim)}",
                                      "--seed", str(rng.randrange(10 ** 6))],
                                expect=_jk_expect(blocks), largest=k == len(pairs) - 1))
    else:
        raise ValueError(f"unknown workload {name!r}")
    # The first job of each kind and mode, which is one of the smallest, warms
    # up lazy imports and caches (numpy's LAPACK, for one) before the timing.
    kinds = set()
    for job in jobs:
        job.warmup = (job.kind, job.mode) not in kinds
        kinds.add((job.kind, job.mode))
    # A seeded order spreads the largest jobs over the pass, so that their
    # mean does not hang on one stretch of machine speed.
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# reading the program's output
# ---------------------------------------------------------------------------


def _report_summary(report: dict) -> dict:
    reason = report["verdict"]["reason"]
    blocks = None
    if report["verdict"]["kind"] == "NonDegenerate":
        blocks = {}
        for pl in report["per_lambda"]:
            for k, v in ((pl.get("blocks") or {}).get("counts") or {}).items():
                if v:
                    blocks[k] = blocks.get(k, 0) + v
    return {"verdict": report["verdict"]["kind"],
            "reason": reason.split("(")[0] if reason else None,
            "type": report["total_type"], "blocks": blocks}


def summarize(kind: str, stdout: str) -> tuple:
    """(summary, warnings) of one successful job's output document."""
    doc = json.loads(stdout)
    if kind == "analyze":
        return _report_summary(doc["report"]), doc["report"]["warnings"]
    if kind == "toda":
        if len(doc["points"]) != 1:
            raise ValueError("expected one lattice point")
        point = doc["points"][0]
        summary = _report_summary(point["report"])
        del summary["blocks"]
        summary["oracle"] = point["oracle_agrees"]
        return summary, point["report"]["warnings"]
    return doc["invariants"], []


def judge(job: Job, code: int, stdout: str, stderr: str) -> Outcome:
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(ok=False, agree=False, warned=False,
                       detail=f"exit code {code} {last[0]}".strip())
    summary, warnings = summarize(job.kind, stdout)
    agree = summary == job.expect
    detail = "" if agree else f"got {summary}, expected {job.expect}"
    return Outcome(ok=True, agree=agree, warned=bool(warnings), detail=detail)
