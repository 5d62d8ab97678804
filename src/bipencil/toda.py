"""The periodic Toda lattice in Flaschka variables: its pencil, the Lax
spectral oracle, and rational points, generic or singular.

Variables are ordered (a_1..a_n, b_1..b_n); all index arithmetic is cyclic
with period n, and Lax-side objects live on the double period 2n.  The
spectral oracle is independent of the pencil machinery: singular parameters
are exactly the multiplicity-two periodic or antiperiodic eigenvalues of the
doubled Jacobi matrix; exact mode reads them off each block's characteristic
polynomial, computed on the ints of the block over one denominator.  The
pencil's generators are collected monomial by monomial, each entry set once.
``make_singular_point`` prescribes such an eigenvalue
through a solution of the eigen-recursion.  Both point constructors draw from
a ``random.Random`` of the caller's seed: they make inputs, and are the
library's only random draws.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ToleranceError
from .exactlin import clear_matrix, poly_roots_hybrid, squarefree_decomposition, to_numpy
from .poly import Poly
from .scalars import EXACT, Mode, tidy
from .tensorfield import PoissonTensorField


@dataclass
class TodaPoint:
    """n sites with a_i > 0; sequences are treated n-periodically."""

    n: int
    a: list
    b: list

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("the periodic lattice needs at least 2 sites")
        self.a = [Fraction(x) if isinstance(x, (int, str)) else x for x in self.a]
        self.b = [Fraction(x) if isinstance(x, (int, str)) else x for x in self.b]
        if len(self.a) != self.n or len(self.b) != self.n:
            raise PreconditionError("a and b must both have length n")
        if any(not (x > 0) for x in self.a):
            raise PreconditionError("phase space requires a_i > 0")

    def coordinates(self):
        return list(self.a) + list(self.b)


def toda_pencil(n: int):
    """The two compatible generators of the lattice pencil, as polynomial fields.

    The bracket table is summed over all n directed cyclic edges, each
    entry's terms collected from their monomials and set once; for n = 2 the
    two (a_1, a_2) contributions cancel and the (b_1, b_2) entries combine
    to 2(a_2^2 - a_1^2), the convention pinned by the Jacobi identity, the
    common-Casimir annihilation and the bi-Hamiltonian vector-field identity.
    """
    if n < 2:
        raise PreconditionError("n >= 2 required")
    d = 2 * n
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    tables = ({}, {})       # per generator, {(i, j): {monomial: coefficient}}, i < j

    def add(table, i, j, c, *variables):
        """c times the product of ``variables`` into entry (i, j), as -c into (j, i)."""
        mono = tuple(variables.count(v) for v in range(d))
        if i > j:
            i, j, c = j, i, -c
        terms = table.setdefault((i, j), {})
        terms[mono] = terms.get(mono, 0) + c

    p0, pinf = tables
    for i in range(n):
        j = (i + 1) % n
        # {a_i, b_i} = a_i b_i ; {a_i, b_{i+1}} = -a_i b_{i+1}
        add(p0, i, n + i, 1, i, n + i)
        add(p0, i, n + j, -1, i, n + j)
        # {a_i, a_{i+1}} = -1/2 a_i a_{i+1} ; {b_i, b_{i+1}} = -2 a_i^2
        add(p0, i, j, Fraction(-1, 2), i, j)
        add(p0, n + i, n + j, -2, i, i)
        # constant-slope generator
        add(pinf, i, n + i, 1, i)
        add(pinf, i, n + j, -1, i)
    fields = (PoissonTensorField(d, names), PoissonTensorField(d, names))
    for field, table in zip(fields, tables):
        for (i, j), terms in table.items():
            field.set_entry(i, j, Poly(d, terms))
    return fields


# ---------------------------------------------------------------------------
# Lax matrix and the double-period spectral oracle
# ---------------------------------------------------------------------------


def jacobi_block(pt: TodaPoint, sign: int):
    """The doubled Lax matrix on the vectors u_j = e_j + sign e_{j+n}, j < n: the
    n x n periodic Jacobi matrix of b and a with corners sign a_n; at n = 2 the
    corner adds to the off-diagonal entry a_1."""
    n = pt.n
    B = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        B[i][i] = pt.b[i]
        B[i][j] = B[j][i] = B[i][j] + (pt.a[i] if j else sign * pt.a[i])
    return B


def jacobi_char_poly(B):
    """det(x I - B), ascending, of a rational ``jacobi_block`` in O(n^2): the
    leading minors T_k = (x - B_kk) T_{k-1} - B_{k-1,k}^2 T_{k-2}, less the
    corner terms c^2 T' + 2 c B_01 B_12 ... B_{n-2,n-1}, T' the minor of rows
    1..n-2 and c = B_{0,n-1}; a 2 x 2 block has no corner terms.  The
    recurrence runs on the ints of D B, D the lcm of B's denominators
    (``exactlin.clear_matrix``): since det(x I - B) = D^-n det(D x I - D B),
    coefficient t is that int over D^(n-t)."""
    n = len(B)
    _, C, D = clear_matrix(B)

    def minor(lo, hi):
        older, prev = [], [1]
        for k in range(lo, hi):
            off = C[k - 1][k] ** 2 if k > lo else 0
            older, prev = prev, [x - C[k][k] * y - off * z for x, y, z in
                                 itertools.zip_longest([0] + prev, prev, older, fillvalue=0)]
        return prev

    chi = minor(0, n)
    if n > 2:
        c = C[0][n - 1]
        for t, y in enumerate(minor(1, n - 1)):
            chi[t] -= c * c * y
        chi[0] -= 2 * c * math.prod(C[k][k + 1] for k in range(n - 1))
    return [Fraction(x, D ** (n - t)) for t, x in enumerate(chi)]


@dataclass
class LaxSpectrumEntry:
    lam: object           # pencil-spectrum value certified by the eigenvalue
    lax_eigenvalue: object
    which: str            # "periodic" | "antiperiodic"
    multiplicity: int


def toda_spectrum_via_lax(pt: TodaPoint, mode: Mode = EXACT):
    """Pencil-spectrum values from the multiplicity->=2 (anti)periodic eigenvalues.

    With the bracket table used here the lambda-slice of the pencil at (a, b)
    equals the zero-slice at (a, b + lambda), so a double eigenvalue mu of the
    doubled Lax matrix certifies the pencil parameter -mu.  Both numbers are
    reported; all values are real (the matrix is symmetric).  In exact mode
    one squarefree decomposition of each block's ``jacobi_char_poly`` serves
    twice: a squarefree block has no multiple eigenvalue, so its roots are not
    sought; otherwise ``poly_roots_hybrid`` is given only the factors of
    multiplicity >= 2, and each of their roots gives an entry, exact, or
    refused with PreconditionError where exact mode cannot hold it.
    """
    out = []
    for which, sign in (("periodic", 1), ("antiperiodic", -1)):
        block = jacobi_block(pt, sign)
        if mode.is_exact:
            chi = jacobi_char_poly(block)
            multiple = [(f, i) for f, i in squarefree_decomposition(chi)[1] if i >= 2]
            if not multiple:
                continue
            for mu, mult in poly_roots_hybrid(chi, multiple):
                out.append(LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                            multiplicity=mult))
        else:
            vals = sorted(np.linalg.eigvalsh(to_numpy(block).real))
            scale = max(1.0, max(abs(v) for v in vals))
            clusters = []
            for v in vals:
                if clusters and abs(v - clusters[-1][-1]) <= 100 * mode.tol * scale:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            for cl in clusters:
                if len(cl) >= 2:
                    mu = float(np.mean(cl))
                    out.append(LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                                multiplicity=len(cl)))
    out.sort(key=lambda e: complex(e.lam).real)
    return out


def lax_recursion_check(pt: TodaPoint, xi, mu=Fraction(0)) -> bool:
    """Does a 2n-sequence solve a_{i-1} x_{i-1} + (b_i - mu) x_i + a_i x_{i+1} = 0?

    ``mu`` is the Lax eigenparameter; the pencil parameter it certifies is -mu.
    """
    n = pt.n
    m = 2 * n
    if len(xi) != m:
        raise PreconditionError("expected a double-period sequence")
    for i in range(m):
        total = (pt.a[(i - 1) % n] * xi[(i - 1) % m]
                 + (pt.b[i % n] - mu) * xi[i]
                 + pt.a[i % n] * xi[(i + 1) % m])
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# constructing points
# ---------------------------------------------------------------------------


def random_point(n: int, seed: int) -> TodaPoint:
    rng = random.Random(seed)
    a = [abs(Fraction(rng.randint(-8, 8), rng.randint(1, 3))) + Fraction(1, 2) for _ in range(n)]
    b = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    return TodaPoint(n=n, a=a, b=b)


def make_singular_point(n: int, seed: int = 0, antiperiodic: bool = True,
                        lam=Fraction(0)) -> TodaPoint:
    """Rational point with ``lam`` in the pencil spectrum (exact double
    (anti)periodic Lax eigenvalue at -lam).

    Prescribe an (anti)periodic solution xi with nonvanishing entries, then
    choose positive a_i with sum 1/(a_i xi_i xi_{i+1}) = 0 (the closing
    condition for a second independent solution of the same parity) and read
    b_i off the recursion.
    """
    rng = random.Random(seed)
    sign = -1 if antiperiodic else 1
    mu = -Fraction(lam)
    for _ in range(400):
        half = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) * (1 if rng.randint(0, 1) else -1)
                for _ in range(n)]
        xi = half + [sign * x for x in half]
        prods = [xi[i] * xi[(i + 1) % (2 * n)] for i in range(n)]
        if all(x != 0 for x in half) and any(s > 0 for s in prods) and any(s < 0 for s in prods):
            t = [Fraction(1)] * n    # t_i = 1 / a_i
            for k in range(n):
                rest = sum(Fraction(1) / prods[j] for j in range(n) if j != k)
                cand = -rest * prods[k]
                if cand > 0:
                    t[k] = cand
                    break
            else:
                continue
            a = [Fraction(1) / x for x in t]
            b = []
            for i in range(n):
                bi = mu - (a[(i - 1) % n] * xi[(i - 1) % (2 * n)]
                           + a[i] * xi[(i + 1) % (2 * n)]) / xi[i]
                b.append(tidy(bi))
            pt = TodaPoint(n=n, a=a, b=b)
            if not lax_recursion_check(pt, xi, mu):
                continue
            doubles = [e for e in toda_spectrum_via_lax(pt)
                       if e.lam == lam and e.multiplicity >= 2]
            if doubles:
                return pt
    raise ToleranceError("failed to construct a singular lattice point")

