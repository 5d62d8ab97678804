"""Real constant pairs of Jordan-Kronecker block lists, as pencils and fields.

``JK_PAIRS`` are the block lists of the benchmark's jk-congruent workload.
``realified`` turns a block list into its real canonical pair, and
``constant_fields`` turns a constant pair into two Poisson tensor fields, so
that ``analyze_point`` reads it at any point.  ``companion_pair`` is a
rational pair whose spectrum is the roots of a polynomial, irrational ones
included.
"""

from __future__ import annotations

from fractions import Fraction

from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair
from bipencil.poly import Poly
from bipencil.scalars import INF, QQi, cimag, creal
from bipencil.tensorfield import PencilAtPoint, PoissonTensorField, constant_pencil

JK_PAIRS = [
    [KroneckerBlock(1), JordanBlock(Fraction(1, 2), 1)],
    [KroneckerBlock(1), JordanBlock(QQi(Fraction(1), Fraction(1)), 1)],
    [KroneckerBlock(0), KroneckerBlock(2), JordanBlock(INF, 2)],
    [KroneckerBlock(1), JordanBlock(Fraction(-2), 2), JordanBlock(INF, 1),
     JordanBlock(Fraction(3), 1)],
    [KroneckerBlock(2), KroneckerBlock(1), JordanBlock(Fraction(1, 3), 2),
     JordanBlock(QQi(Fraction(0), Fraction(1)), 1)],
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
    pair = [[[Fraction(0)] * d for _ in range(d)] for _ in range(2)]
    offset = 0
    for forms in pieces:
        for M, X in zip(pair, forms):
            for i, row in enumerate(X):
                M[offset + i][offset:offset + len(X)] = row
        offset += len(forms[0])
    return constant_pencil(*pair)


def constant_fields(p: PencilAtPoint):
    """The constant pair ``p`` as two Poisson tensor fields of its dimension."""
    fields = []
    for M in (p.A0, p.Ainf):
        f = PoissonTensorField(p.dim)
        for i in range(p.dim):
            for j in range(i + 1, p.dim):
                if M[i][j] != 0:
                    f.set_entry(i, j, Poly.constant(p.dim, M[i][j]))
        fields.append(f)
    return fields[0], fields[1]


def companion_pair(coeffs) -> PencilAtPoint:
    """[[0, M], [-M^T, 0]] and [[0, -I], [I, 0]] with M the companion matrix
    of the monic polynomial with lower coefficients ``coeffs``, ascending: a
    Jordan block of size k at each root of multiplicity k."""
    m = len(coeffs)
    M = [[Fraction(int(i == j + 1)) for j in range(m - 1)] + [Fraction(-c)]
         for i, c in enumerate(coeffs)]
    A0 = ([[Fraction(0)] * m + row for row in M]
          + [[-M[j][i] for j in range(m)] + [Fraction(0)] * m for i in range(m)])
    Ainf = ([[Fraction(0)] * m + [Fraction(-int(i == j)) for j in range(m)] for i in range(m)]
            + [[Fraction(int(i == j)) for j in range(m)] + [Fraction(0)] * m for i in range(m)])
    return constant_pencil(A0, Ainf)
