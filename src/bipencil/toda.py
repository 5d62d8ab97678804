"""The periodic Toda lattice in Flaschka variables: its pencil, the Lax
spectral oracle, and rational points, generic or singular.

Variables are ordered (a_1..a_n, b_1..b_n); all index arithmetic is cyclic
with period n, and Lax-side objects live on the double period 2n.  The
spectral oracle is independent of the pencil machinery: singular parameters
are exactly the multiplicity-two periodic or antiperiodic eigenvalues of the
doubled Jacobi matrix.  ``make_singular_point`` prescribes such an eigenvalue
through a solution of the eigen-recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ToleranceError
from .exactlin import char_poly, poly_deriv, poly_gcd_exact, poly_roots_hybrid, to_numpy
from .poly import Poly
from .sampling import SamplingPolicy
from .scalars import EXACT, Mode, is_exact_scalar, tidy
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

    The bracket table is summed over all n directed cyclic edges; for n = 2
    the two (a_1, a_2) contributions cancel and the (b_1, b_2) entries combine
    to 2(a_2^2 - a_1^2), the convention pinned by the Jacobi identity, the
    common-Casimir annihilation and the bi-Hamiltonian vector-field identity.
    """
    if n < 2:
        raise PreconditionError("n >= 2 required")
    d = 2 * n
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    p0 = PoissonTensorField(d, names)
    pinf = PoissonTensorField(d, names)

    def va(i):
        return Poly.variable(d, i % n)

    def vb(i):
        return Poly.variable(d, n + (i % n))

    for i in range(n):
        j = (i + 1) % n
        # {a_i, b_i} = a_i b_i ; {a_i, b_{i+1}} = -a_i b_{i+1}
        p0.add_to_entry(i, n + i, va(i) * vb(i))
        p0.add_to_entry(i, n + j, -(va(i) * vb(j)))
        # {a_i, a_{i+1}} = -1/2 a_i a_{i+1} ; {b_i, b_{i+1}} = -2 a_i^2
        p0.add_to_entry(i, j, va(i) * va(j) * Fraction(-1, 2))
        p0.add_to_entry(n + i, n + j, va(i) * va(i) * Fraction(-2))
        # constant-slope generator
        pinf.add_to_entry(i, n + i, va(i))
        pinf.add_to_entry(i, n + j, -va(i))
    return p0, pinf


# ---------------------------------------------------------------------------
# Lax matrix and the double-period spectral oracle
# ---------------------------------------------------------------------------


@dataclass
class LaxMatrix:
    n: int
    matrix: list         # 2n x 2n symmetric rational

    def periodic_block(self):
        return _shift_block(self, sign=1)

    def antiperiodic_block(self):
        return _shift_block(self, sign=-1)


def lax_matrix(pt: TodaPoint) -> LaxMatrix:
    """Symmetric Jacobi matrix on the double period, corners closing the cycle."""
    n = pt.n
    m = 2 * n
    L = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        L[r][r] = pt.b[r % n]
        if r + 1 < m:
            L[r][r + 1] = pt.a[r % n]
            L[r + 1][r] = pt.a[r % n]
    L[0][m - 1] = pt.a[n - 1]
    L[m - 1][0] = pt.a[n - 1]
    return LaxMatrix(n=n, matrix=L)


def _shift_block(lax: LaxMatrix, sign: int):
    """Action of the Lax matrix on the (anti)symmetric subspace of the n-shift.

    Basis u_j = e_j + sign * e_{j+n}; the image of u_j is again (anti)symmetric
    and its first n components are the block column, L[i][j] + sign L[i][j+n].
    """
    L, n = lax.matrix, lax.n
    return [[L[i][j] + sign * L[i][j + n] for j in range(n)] for i in range(n)]


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
    reported; all values are real (the matrix is symmetric).  In exact mode a
    block whose characteristic polynomial is coprime to its derivative has
    no multiple eigenvalue, so its roots are not sought; otherwise each root
    of multiplicity >= 2 from ``poly_roots_hybrid`` gives an entry, with an
    exact value when the root is rational and a float one otherwise.
    """
    lax = lax_matrix(pt)
    out = []
    for which, block in (("periodic", lax.periodic_block()),
                         ("antiperiodic", lax.antiperiodic_block())):
        if mode.is_exact:
            chi = char_poly(block)
            if len(poly_gcd_exact(chi, poly_deriv(chi))) == 1:
                continue
            for mu, mult in poly_roots_hybrid(chi):
                if mult >= 2:
                    mu = mu if is_exact_scalar(mu) else mu.real
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
    sp = SamplingPolicy(seed)
    a = [abs(sp.small_rational(8, 3)) + Fraction(1, 2) for _ in range(n)]
    b = [sp.small_rational(6, 3) for _ in range(n)]
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
    sp = SamplingPolicy(seed)
    sign = -1 if antiperiodic else 1
    mu = -Fraction(lam)
    for _ in range(400):
        half = [Fraction(sp.randint(1, 6), sp.randint(1, 3)) * (1 if sp.randint(0, 1) else -1)
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
                       if is_exact_scalar(e.lam) and e.lam == lam and e.multiplicity >= 2]
            if doubles:
                return pt
    raise ToleranceError("failed to construct a singular lattice point")

