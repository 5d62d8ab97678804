"""Argument-shift pencils on sl(n, R) at points whose type has a closed form.

Let x and a be simultaneously block-diagonal and traceless, each with r real
diagonal entries and b rotation blocks [[p, -q], [q, p]], so n = r + 2b, and
conjugate both by one unimodular integer matrix U.  Matrices are covectors by
x(E) = tr(XE).  The spectrum of the argument-shift pencil at x is the set of
lambda at which two eigenvalues of x - lambda a coincide.  When no eigenvalue
reaches multiplicity 3 at any lambda, x is a non-degenerate singular point of
rank 0 with ke = b (a rotation block's pair meets on the real axis),
kh = r(r - 1)/2 (two real eigenvalues meet) and kf = b r + b(b - 1) (a complex
eigenvalue meets a real one or one of another block, at a conjugate pair of
lambda).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from bipencil.catalog import ExpectedSummary, _shift_entry
from bipencil.exactlin import mat_mul
from bipencil.liealg import REAL, LieAlgebra
from bipencil.scalars import QQi

F = Fraction


def sl_basis(n: int):
    """The matrices E_ij (i != j), then H_k = E_kk - E_{k+1,k+1}, with labels."""
    def unit(entries):
        M = [[F(0)] * n for _ in range(n)]
        for i, j, v in entries:
            M[i][j] = F(v)
        return M

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [unit([(i, j, 1)]) for i, j in pairs]
    mats += [unit([(k, k, 1), (k + 1, k + 1, -1)]) for k in range(n - 1)]
    labels = [f"E{i + 1}{j + 1}" for i, j in pairs] + [f"H{k + 1}" for k in range(n - 1)]
    return mats, labels


def sl_coords(M, n: int):
    """Coordinates of a traceless matrix on ``sl_basis(n)``: the E_ij entries,
    then the H_k coefficients, the partial sums of the diagonal."""
    off = [M[i][j] for i in range(n) for j in range(n) if i != j]
    return off + [sum(M[t][t] for t in range(k + 1)) for k in range(n - 1)]


def sl(n: int) -> LieAlgebra:
    mats, labels = sl_basis(n)
    g = LieAlgebra(len(mats), REAL, labels)
    for u in range(len(mats)):
        for v in range(u + 1, len(mats)):
            AB, BA = mat_mul(mats[u], mats[v]), mat_mul(mats[v], mats[u])
            g.set_bracket(u, v, sl_coords([[p - q for p, q in zip(r, s)]
                                           for r, s in zip(AB, BA)], n))
    return g


def covector(X, n: int):
    """x(E) = tr(XE) on ``sl_basis(n)``."""
    return [sum(X[i][j] * E[j][i] for i in range(n) for j in range(n))
            for E in sl_basis(n)[0]]


def block_diagonal(reals, blocks):
    """diag(reals) followed by one rotation block [[p, -q], [q, p]] per (p, q)."""
    n = len(reals) + 2 * len(blocks)
    M = [[F(0)] * n for _ in range(n)]
    for i, d in enumerate(reals):
        M[i][i] = F(d)
    for j, (p, q) in enumerate(blocks):
        k = len(reals) + 2 * j
        M[k][k] = M[k + 1][k + 1] = F(p)
        M[k][k + 1], M[k + 1][k] = F(-q), F(q)
    return M


def _traceless(M):
    c = sum(M[i][i] for i in range(len(M))) / len(M)
    return [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]


def eigenvalues_block_diagonal(reals, blocks):
    """The eigenvalues of ``block_diagonal(reals, blocks)``, as QQi."""
    return ([QQi(F(d), F(0)) for d in reals]
            + [QQi(F(p), F(s * q)) for p, q in blocks for s in (1, -1)])


def has_triple_coincidence(x_eigs, a_eigs) -> bool:
    """Does an eigenvalue of x - lambda a reach multiplicity 3 at some lambda
    (or two of them coincide at every lambda)?  The eigenvalues are
    x_k - lambda a_k, pairwise matched."""
    lines = list(zip(x_eigs, a_eigs))
    for k, (xk, ak) in enumerate(lines):
        for xl, al in lines[k + 1:]:
            if ak == al:
                if xk == xl:
                    return True
                continue
            lam = (xk - xl) / (ak - al)
            if sum(xm - lam * am == xk - lam * ak for xm, am in lines) >= 3:
                return True
    return False


def unimodular(n: int, rng: random.Random):
    """U and U^-1, a product of elementary integer matrices."""
    U = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    Ui = [row[:] for row in U]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for t in range(n):            # U <- U (I + c E_ij), U^-1 <- (I - c E_ij) U^-1
            U[t][j] += c * U[t][i]
            Ui[i][t] -= c * Ui[j][t]
    return U, Ui


@dataclass
class ShiftCase:
    n: int
    point: list          # the covector x
    shift: list          # the covector a
    type: tuple          # (ke, kh, kf)

    def entry(self):
        """The argument-shift pencil with shift a, as a catalog entry at 0."""
        return _shift_entry(f"sl{self.n}_shift", sl(self.n), self.shift, self.n ** 2 - self.n,
                            ExpectedSummary("NonDegenerate", self.type), [])


def shift_case(n: int, b: int, seed: int) -> ShiftCase:
    """A seeded point of rank 0 with r = n - 2b real entries and b rotation
    blocks, redrawn until a has n distinct eigenvalues (so that infinity is
    not in the spectrum) and no eigenvalue of x - lambda a reaches
    multiplicity 3."""
    r = n - 2 * b
    rng = random.Random(f"sl{n}:{b}:{seed}")

    def draw():
        reals = [F(rng.randint(-6, 6)) for _ in range(r)]
        blocks = [(F(rng.randint(-6, 6)), F(rng.choice((-1, 1)) * rng.randint(1, 4)))
                  for _ in range(b)]
        return reals, blocks

    while True:
        (xr, xb), (ar, ab) = draw(), draw()
        a_eigs = eigenvalues_block_diagonal(ar, ab)
        if (all(u != v for k, u in enumerate(a_eigs) for v in a_eigs[k + 1:])
                and not has_triple_coincidence(eigenvalues_block_diagonal(xr, xb), a_eigs)):
            break
    U, Ui = unimodular(n, rng)
    X, A = (mat_mul(mat_mul(U, _traceless(block_diagonal(*m))), Ui)
            for m in ((xr, xb), (ar, ab)))
    return ShiftCase(n, covector(X, n), covector(A, n),
                     (b, r * (r - 1) // 2, b * r + b * (b - 1)))
