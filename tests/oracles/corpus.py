"""The named inputs that the tests and ``tools/jobdiff.py`` share.

A ``Case`` is a pencil at a point: two Poisson tensor fields, the point, the
declared rank, and the reference where one exists (the catalog's
``ExpectedSummary``, the closed-form type of a rank-0 sl(n) shift point, the
Lax count at a Toda point, or the ``jk`` invariants of a block list).  A
constant pair is its own pencil at every point, read at the origin.
``perfbench/workloads.py`` keeps its own ``JK_PAIRS``, ``_real_jk_pair`` and
``_unimodular``, which ``tests/test_perfbench_targets.py`` holds equal to
``JK_PAIRS``, ``realified`` and ``unit_lower_upper`` here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from bipencil.catalog import ExpectedSummary, catalog as catalog_entries
from bipencil.exactlin import mat_mul
from bipencil.io import dump_canonical, pencil_to_json_dict
from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair, congruent_pair
from bipencil.liealg import REAL, LieAlgebra
from bipencil.poly import Poly
from bipencil.scalars import INF, QQi, cimag, creal, lambda_key
from bipencil.tensorfield import (PencilAtPoint, PoissonTensorField, constant_pencil,
                                  evaluate_pencil)
from bipencil.toda import (TodaPoint, make_singular_point, random_point, toda_pencil,
                           toda_spectrum_via_lax)

from oracles.sln import ShiftCase, covector, shift_case

F = Fraction


@dataclass
class Case:
    name: str
    field0: PoissonTensorField
    field_inf: PoissonTensorField
    point: list
    rank: int | None = None                 # the declared rank
    reference: object = None                # ExpectedSummary, or a jk invariants dict
    pair: PencilAtPoint | None = None       # a constant pair
    lattice: TodaPoint | None = None        # a Toda point

    @cached_property
    def pencil(self) -> PencilAtPoint:
        if self.pair is not None:
            return self.pair
        return evaluate_pencil(self.field0, self.field_inf, self.point)

    @cached_property
    def expected(self):
        """The reference; at a Toda point, one elliptic block per double Lax
        eigenvalue, read off the Lax matrix on first use."""
        if self.lattice is None:
            return self.reference
        m = len(toda_spectrum_via_lax(self.lattice))
        return ExpectedSummary("NonDegenerate", (m, 0, 0)) if m else ExpectedSummary("Regular")

    def congruent(self, U, name=None) -> Case:
        """The constant pair U^T P U, with the same reference."""
        return constant(name or self.name, congruent_pair(self.pair, U), self.reference)

    def write(self, path, declared=True) -> str:
        """Write the pencil file, with the declared rank unless ``declared`` is false."""
        doc = pencil_to_json_dict(self.field0, self.field_inf, self.rank if declared else None)
        with open(path, "w") as fh:
            fh.write(dump_canonical(doc))
        return str(path)

    def argv(self, command, mode, seed=None, path=None) -> list:
        """The CLI call: ``toda`` on the lattice point, else ``command`` on the
        pencil file at ``path`` and the point."""
        if command == "toda":
            # "--b=-3/2,..." keeps argparse from reading a negative value as an option
            pt = self.lattice
            where = ["--n", str(pt.n), f"--a={_csv(pt.a)}", f"--b={_csv(pt.b)}"]
        else:
            where = ["--pencil", str(path), f"--point={_csv(self.point)}"]
        return [command, *where, "--mode", mode] + ([] if seed is None else ["--seed", str(seed)])


def _csv(values) -> str:
    return ",".join(map(str, values))


def catalog() -> list:
    return [Case(e.name, e.field0, e.field_inf, e.point, e.declared_rank, e.expected)
            for e in catalog_entries()]


def toda_at(name, pt: TodaPoint) -> Case:
    return Case(name, *toda_pencil(pt.n), pt.coordinates(), 2 * pt.n - 2, lattice=pt)


def toda_singular(n, seed) -> Case:
    return toda_at(f"toda-singular-{n}.{seed}", make_singular_point(n, seed))


def toda_random(n, seed) -> Case:
    return toda_at(f"toda-random-{n}.{seed}", random_point(n, seed))


def toda_symmetric(n) -> Case:
    return toda_at(f"toda-symmetric-{n}", TodaPoint(n, [F(1)] * n, [F(0)] * n))


def toda(sizes, seeds=(1,), regular=True) -> list:
    """Per n of ``sizes``: the singular points of ``seeds``, then random_point(n, n)."""
    return [case for n in sizes for case in
            [toda_singular(n, s) for s in seeds] + ([toda_random(n, n)] if regular else [])]


def rigid_body(n, c, point) -> Case:
    """The pencil of two linear brackets on so(n), [X, Y]_I = XY - YX (P_0)
    and [X, Y]_C = XCY - YCX with C = diag(c) (P_inf), at ``point``: the Euler
    top at n = 3, the multidimensional rigid body beyond (Bolsinov and
    Borisov, *Math. Notes* 72, 2002; Manakov, 1976).  [X, Y]_C is a Lie
    bracket for every symmetric C, linear in C.  The basis is E_ab = e_a e_b^T
    - e_b e_a^T for a < b, in order (E12, E13, E23 at n = 3), and each bracket
    is built from the basis matrices as ``oracles.sln.sl`` builds sl(n)'s."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    labels = [f"E{a + 1}{b + 1}" for a, b in pairs]
    mats = []
    for a, b in pairs:
        M = [[F(0)] * n for _ in range(n)]
        M[a][b], M[b][a] = F(1), F(-1)
        mats.append(M)
    fields = []
    for middle in ([F(1)] * n, [F(x) for x in c]):
        g = LieAlgebra(len(pairs), REAL, labels)
        for u, X in enumerate(mats):
            XC = [[x * m for x, m in zip(row, middle)] for row in X]
            for v in range(u + 1, len(mats)):
                Y = mats[v]
                YC = [[y * m for y, m in zip(row, middle)] for row in Y]
                B = [[p - q for p, q in zip(r, s)]
                     for r, s in zip(mat_mul(XC, Y), mat_mul(YC, X))]
                g.set_bracket(u, v, [B[a][b] for a, b in pairs])
        fields.append(g.lie_poisson_field())
    name = f"rigid-body-{n}-{_csv(c)}-at-{_csv(point)}"
    return Case(name, *fields, [F(x) for x in point], len(pairs) - n // 2)


def _shift(name, case: ShiftCase) -> Case:
    e = case.entry()
    return Case(name, e.field0, e.field_inf, case.point, case.n ** 2 - case.n,
                e.expected if case.type else None)


def sl(n, b) -> Case:
    """The rank-0 point ``shift_case(n, b, 1)``, its type in closed form."""
    return _shift(f"sl{n}-{b}", shift_case(n, b, 1))


def sl3_quadratic_factor() -> Case:
    """The argument-shift pencil of sl(3) with a = diag(1, 2, -3) at
    x = [[1, 1, 0], [3, 1, 0], [0, 0, -2]]: a singular point of rank 1 whose
    spectrum values lie in Q(sqrt 249), and whose ad eigenvalues there are
    the roots of a quadratic over that field."""
    A = [[1, 0, 0], [0, 2, 0], [0, 0, -3]]
    X = [[1, 1, 0], [3, 1, 0], [0, 0, -2]]
    return _shift("sl3-quadratic-factor", ShiftCase(3, covector(X, 3), covector(A, 3), None))


# The block lists of the benchmark's jk-congruent workload, dims 5 to 16
JK_PAIRS = [
    [KroneckerBlock(1), JordanBlock(F(1, 2), 1)],
    [KroneckerBlock(1), JordanBlock(QQi(F(1), F(1)), 1)],
    [KroneckerBlock(0), KroneckerBlock(2), JordanBlock(INF, 2)],
    [KroneckerBlock(1), JordanBlock(F(-2), 2), JordanBlock(INF, 1), JordanBlock(F(3), 1)],
    [KroneckerBlock(2), KroneckerBlock(1), JordanBlock(F(1, 3), 2),
     JordanBlock(QQi(F(0), F(1)), 1)],
]


def realified(blocks) -> PencilAtPoint:
    """The real constant pair of ``blocks``: a Jordan block at a non-real
    lambda, with its conjugate, becomes [[2 Re X, -2 Im X], [-2 Im X, -2 Re X]]
    for each of its forms X, which is congruent to diag(X, conj X)."""
    pieces = []
    for b in blocks:
        p = assemble_jk_canonical_pair([b])
        forms = [p.A0, p.Ainf]
        if isinstance(b, JordanBlock) and isinstance(b.lam, QQi) and b.lam.im:
            forms = [[[2 * creal(x) for x in row] + [-2 * cimag(x) for x in row] for row in X]
                     + [[-2 * cimag(x) for x in row] + [-2 * creal(x) for x in row] for row in X]
                     for X in forms]
        pieces.append(forms)
    d = sum(len(A) for A, _ in pieces)
    pair = [[[F(0)] * d for _ in range(d)] for _ in range(2)]
    offset = 0
    for forms in pieces:
        for M, X in zip(pair, forms):
            for i, row in enumerate(X):
                M[offset + i][offset:offset + len(X)] = row
        offset += len(forms[0])
    return constant_pencil(*pair)


def constant_fields(p: PencilAtPoint):
    """The constant pair ``p`` as two Poisson tensor fields of its dimension."""
    fields = PoissonTensorField(p.dim), PoissonTensorField(p.dim)
    for i, j, *values in p.entries:
        for f, c in zip(fields, values):
            if c != 0:
                f.set_entry(i, j, Poly.constant(p.dim, c))
    return fields


def companion_pair(coeffs) -> PencilAtPoint:
    """[[0, M], [-M^T, 0]] and [[0, -I], [I, 0]] with M the companion matrix
    of the monic polynomial with lower coefficients ``coeffs``, ascending: a
    Jordan block of size k at each root of multiplicity k."""
    m = len(coeffs)
    M = [[F(int(i == j + 1)) for j in range(m - 1)] + [F(-c)] for i, c in enumerate(coeffs)]
    A0 = ([[F(0)] * m + row for row in M]
          + [[-M[j][i] for j in range(m)] + [F(0)] * m for i in range(m)])
    Ainf = ([[F(0)] * m + [F(-int(i == j)) for j in range(m)] for i in range(m)]
            + [[F(int(i == j)) for j in range(m)] + [F(0)] * m for i in range(m)])
    return constant_pencil(A0, Ainf)


def jk_reference(blocks, real=True) -> dict:
    """The ``jk`` invariants of ``blocks``; in a real pair a block at a
    non-real lambda stands for its conjugate too."""
    kronecker = sorted(b.half_size for b in blocks if isinstance(b, KroneckerBlock))
    jordan = {}
    for b in blocks:
        if isinstance(b, JordanBlock):
            for lam in (b.lam, b.lam.conjugate()) if real and cimag(b.lam) else (b.lam,):
                jordan.setdefault(lambda_key(lam), []).append(b.size)
    return {"corank": len(kronecker), "kronecker": kronecker,
            "jordan": {key: sorted(sizes) for key, sizes in jordan.items()}}


def constant(name, pair: PencilAtPoint, reference=None) -> Case:
    """The pair at the origin; a pair off Q has no fields (a pencil file holds
    rationals)."""
    rational = all(isinstance(x, Fraction) for _, _, *ab in pair.entries for x in ab)
    fields = constant_fields(pair) if rational else (None, None)
    return Case(name, *fields, [F(0)] * pair.dim, reference=reference, pair=pair)


def jk(name, blocks, real=True) -> Case:
    """The pair of ``blocks``: realified, or the canonical pair over the
    field of its lambdas."""
    pair = realified(blocks) if real else assemble_jk_canonical_pair(blocks)
    return constant(name, pair, jk_reference(blocks, real))


def jk_pairs(real=True) -> list:
    return [jk(f"jk{k}", blocks, real) for k, blocks in enumerate(JK_PAIRS)]


def unit_lower_upper(d, rng):
    """Unit lower times unit upper triangular, det 1: the entries below, then
    above the diagonal drawn row by row from {-1, 0, 1} by ``rng.randint``."""
    L = [[F(1) if i == j else F(rng.randint(-1, 1)) if i > j else F(0) for j in range(d)]
         for i in range(d)]
    R = [[F(1) if i == j else F(rng.randint(-1, 1)) if i < j else F(0) for j in range(d)]
         for i in range(d)]
    return mat_mul(L, R)


def jk_gaussian() -> Case:
    """Kronecker 2 + Jordan (1 +- 2i) of size 2, realified: 13-dim, and the
    only non-real Jordan block of size 2 (left out of ``JK_PAIRS``: it takes
    longer than the rest together)."""
    return jk("jk-gaussian", [KroneckerBlock(2), JordanBlock(QQi(1, 2), 2)])


def jk_gaussian_congruences() -> list:
    """``jk_gaussian`` under the first two congruences that
    ``random.Random("jobdiff-jk")`` draws."""
    base, rng = jk_gaussian(), random.Random("jobdiff-jk")
    return [base.congruent(unit_lower_upper(base.pair.dim, rng), f"{base.name}.{c}")
            for c in range(2)]


def sqrt2(size) -> Case:
    """The companion pair of (x^2 - 2)^size, size 1 or 2: Jordan blocks of
    that size at lambda = +-sqrt 2."""
    root = QQi(0, 1, 2)
    return constant("sqrt2" if size == 1 else "sqrt2-square",
                    companion_pair([-2, 0] if size == 1 else [4, 0, -4, 0]),
                    jk_reference([JordanBlock(root, size), JordanBlock(-root, size)]))
