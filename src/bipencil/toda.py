"""The periodic Toda lattice in Flaschka variables, with its Lax cross-oracle.

Variables are ordered (a_1..a_n, b_1..b_n); all index arithmetic is cyclic
with period n, and Lax-side objects live on the double period 2n.  The
spectral oracle is independent of the pencil machinery: singular parameters
are exactly the multiplicity-two periodic or antiperiodic eigenvalues of the
doubled Jacobi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ToleranceError
from .exactlin import (bilinear, char_poly, coords_in_span, mat_vec, nullspace,
                       poly_roots_hybrid, symmetric_signature, to_numpy)
from .liealg import LieAlgebra
from .poly import Poly
from .sampling import SamplingPolicy
from .scalars import EXACT, Mode, simplify_scalar
from .tensorfield import PencilAtPoint, PoissonTensorField, evaluate_pencil


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


def toda_pencil_at(pt: TodaPoint) -> PencilAtPoint:
    p0, pinf = toda_pencil(pt.n)
    return evaluate_pencil(p0, pinf, pt.coordinates())


def casimir_gradient(pt: TodaPoint):
    """Gradient of the common Casimir sum(log a_i): (1/a_i, ..., 0, ...)."""
    return [Fraction(1) / x for x in pt.a] + [Fraction(0)] * pt.n


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
    and its first n components are the block column.
    """
    n = lax.n
    m = 2 * n
    block = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        u = [Fraction(0)] * m
        u[j] = Fraction(1)
        u[j + n] = Fraction(sign)
        img = mat_vec(lax.matrix, u)
        for i in range(n):
            block[i][j] = img[i]
    return block


@dataclass
class LaxSpectrumEntry:
    lam: object           # pencil-spectrum value certified by the eigenvalue
    lax_eigenvalue: object
    which: str            # "periodic" | "antiperiodic"
    multiplicity: int
    exact: bool = True


def toda_spectrum_via_lax(pt: TodaPoint, mode: Mode = EXACT, warnings=None):
    """Pencil-spectrum values from the multiplicity->=2 (anti)periodic eigenvalues.

    With the bracket table used here the lambda-slice of the pencil at (a, b)
    equals the zero-slice at (a, b + lambda), so a double eigenvalue mu of the
    doubled Lax matrix certifies the pencil parameter -mu.  Both numbers are
    reported; all values are real (the matrix is symmetric).
    """
    lax = lax_matrix(pt)
    out = []
    for which, block in (("periodic", lax.periodic_block()),
                         ("antiperiodic", lax.antiperiodic_block())):
        if mode.is_exact:
            exact_roots, float_roots = poly_roots_hybrid(char_poly(block))
            for mu, mult in exact_roots:
                if mult >= 2:
                    out.append(LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                                multiplicity=mult, exact=True))
            for mu, mult in float_roots:
                if mult >= 2:
                    mu = complex(mu).real
                    out.append(LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                                multiplicity=mult, exact=False))
                    if warnings is not None:
                        warnings.append(
                            f"double {which} eigenvalue {mu!r} is irrational; "
                            "reported as float")
        else:
            vals = sorted(np.linalg.eigvalsh(to_numpy(block).real))
            scale = max(1.0, max(abs(v) for v in vals))
            clusters = []
            for v in vals:
                if clusters and abs(v - clusters[-1][-1]) <= 100 * mode.eps * scale:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            for cl in clusters:
                if len(cl) >= 2:
                    mu = float(np.mean(cl))
                    out.append(LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                                multiplicity=len(cl), exact=False))
            if warnings is not None:
                gaps = [abs(cl2[0] - cl1[-1]) for cl1, cl2 in zip(clusters, clusters[1:])]
                for g in gaps:
                    if 100 * mode.eps * scale < g < 1000 * mode.eps * scale:
                        warnings.append("near-degenerate eigenvalue gap in the Lax "
                                        "spectrum; multiplicity split is borderline")
    out.sort(key=lambda e: complex(e.lam).real)
    return out


# ---------------------------------------------------------------------------
# solutions of the eigen-recursion and the kernel product
# ---------------------------------------------------------------------------


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


def kernel_product(xi, eta):
    """The product of two recursion solutions: alpha_i = xi_i eta_{i+1} + xi_{i+1} eta_i,
    beta_i = xi_i eta_i, on the double period."""
    m = len(xi)
    if len(eta) != m:
        raise PreconditionError("sequence length mismatch")
    alpha = [xi[i] * eta[(i + 1) % m] + xi[(i + 1) % m] * eta[i] for i in range(m)]
    beta = [xi[i] * eta[i] for i in range(m)]
    return alpha, beta


def fold_to_covector(pt: TodaPoint, alpha, beta):
    """n-periodic (alpha, beta) as a phase-space covector (a-slots, b-slots)."""
    n = pt.n
    for i in range(n):
        if alpha[i] != alpha[(i + n) % (2 * n)] or beta[i] != beta[(i + n) % (2 * n)]:
            raise PreconditionError("product is not n-periodic (mixed parity inputs)")
    return [alpha[i] for i in range(n)] + [beta[i] for i in range(n)]


def wronskian(pt: TodaPoint, xi, eta, i: int | None = None):
    """W_i = a_i (xi_{i+1} eta_i - xi_i eta_{i+1}); independent of i for solutions."""
    n = pt.n
    m = len(xi)
    vals = [pt.a[k % n] * (xi[(k + 1) % m] * eta[k] - xi[k] * eta[(k + 1) % m])
            for k in range(m)]
    if any(v != vals[0] for v in vals[1:]):
        raise PreconditionError("Wronskian is not constant; inputs do not solve "
                                "the recursion")
    return vals[i % m if i is not None else 0]


@dataclass
class Monodromy:
    matrix: list          # 2x2, action of the shift-by-n on the solution space
    determinant: object
    trace: object
    kind: str             # plus_identity | minus_identity | jordan_plus |
                          # jordan_minus | generic


def monodromy(pt: TodaPoint, lam=Fraction(0)) -> Monodromy:
    """Transfer-matrix product over one period at eigenparameter ``lam``."""
    n = pt.n

    def solve_forward(x0, x1):
        xs = [x0, x1]
        # x_{i+1} = ((lam - b_i) x_i - a_{i-1} x_{i-1}) / a_i, sites i = 1..n (1-based)
        for i in range(1, n + 1):
            bi = pt.b[(i - 1) % n]
            am = pt.a[(i - 2) % n]
            ai = pt.a[(i - 1) % n]
            xs.append(((lam - bi) * xs[i] - am * xs[i - 1]) / ai)
        return xs

    s1 = solve_forward(Fraction(1), Fraction(0))
    s2 = solve_forward(Fraction(0), Fraction(1))
    M = [[s1[n], s2[n]], [s1[n + 1], s2[n + 1]]]
    det = simplify_scalar(M[0][0] * M[1][1] - M[0][1] * M[1][0])
    tr = simplify_scalar(M[0][0] + M[1][1])
    is_identity = M[0][1] == 0 and M[1][0] == 0 and M[0][0] == M[1][1]
    if is_identity and M[0][0] == 1:
        kind = "plus_identity"
    elif is_identity and M[0][0] == -1:
        kind = "minus_identity"
    elif tr == 2:
        kind = "jordan_plus"
    elif tr == -2:
        kind = "jordan_minus"
    else:
        kind = "generic"
    return Monodromy(matrix=M, determinant=det, trace=tr, kind=kind)


def double_eigensolutions(pt: TodaPoint, lam, mode: Mode = EXACT):
    """Two independent (anti)periodic solutions certifying pencil parameter ``lam``.

    Solves at the Lax eigenvalue mu = -lam; returns (xi, eta, which) and
    raises if the eigenvalue is not double in one parity class.
    """
    mu = -lam
    lax = lax_matrix(pt)
    for which, sign, block in (("periodic", 1, lax.periodic_block()),
                               ("antiperiodic", -1, lax.antiperiodic_block())):
        shifted = [[block[i][j] - (mu if i == j else 0) for j in range(pt.n)]
                   for i in range(pt.n)]
        ker = nullspace(shifted, mode)
        if len(ker) >= 2:
            unfold = []
            for v in ker[:2]:
                unfold.append(list(v) + [sign * x for x in v])
            return unfold[0], unfold[1], which
    raise PreconditionError(f"{lam} is not in the pencil spectrum (no double "
                            "periodic or antiperiodic eigenvalue)")


@dataclass
class KernelAlgebraCheck:
    lam: object
    which: str
    wronskian: object
    commutators_ok: bool
    pairings_ok: bool
    cocycle_kernel_ok: bool
    algebra_is_sl2_plus_center: bool
    mismatches: list = field(default_factory=list)

    def ok(self) -> bool:
        return (self.commutators_ok and self.pairings_ok and self.cocycle_kernel_ok
                and self.algebra_is_sl2_plus_center)


def toda_kernel_algebra_check(pt: TodaPoint, lam, mode: Mode = EXACT) -> KernelAlgebraCheck:
    """Verify the kernel-algebra identities at a singular parameter.

    Checks the three commutator identities against the structure constants of
    the linearization, the three pairings of the constant generator, the
    kernel of its restriction, and the sl(2, R) + center recognition.
    """
    xi, eta_raw, which = double_eigensolutions(pt, lam, mode)
    # orthogonalize over one period (exact; no normalization needed)
    n = pt.n
    dot = lambda u, v: sum(u[i] * v[i] for i in range(n))
    eta = [dot(xi, xi) * y - dot(xi, eta_raw) * x for x, y in zip(xi, eta_raw)]
    p = toda_pencil_at(pt)
    W = wronskian(pt, xi, eta)
    mismatches = []

    def fold(u, v):
        return fold_to_covector(pt, *kernel_product(u, v))

    X = fold(xi, xi)
    Y = fold(eta, eta)
    Z = fold(xi, eta)
    dC = casimir_gradient(pt)

    def bracket(u, v):
        return [simplify_scalar(bilinear(p.derivative_at(lam, k), u, v) + Fraction(0))
                for k in range(2 * n)]

    def vec_eq(u, v, mod_center: bool):
        diff = [simplify_scalar(a - b + Fraction(0)) for a, b in zip(u, v)]
        if all(x == 0 for x in diff):
            return True
        if mod_center:
            # n = 2 wrap-around: the identities close only modulo the central
            # Casimir direction
            return coords_in_span([dC], diff, mode) is not None
        return False

    # the b-b entries of the quadratic table make the first coefficient 4W,
    # not 2W: d{f,g} contracted against d/da_i(-2 a_i^2) = -4 a_i
    comm_ok = True
    for name, got, expect in (
            ("[X,Y] = 4W Z", bracket(X, Y), [4 * W * z for z in Z]),
            ("[Z,X] = -2W X", bracket(Z, X), [-2 * W * x for x in X]),
            ("[Z,Y] = 2W Y", bracket(Z, Y), [2 * W * y for y in Y])):
        if not vec_eq(got, expect, mod_center=(n == 2)):
            comm_ok = False
            mismatches.append(f"commutator identity failed: {name}")

    Ainf = p.Ainf
    pair_ok = True
    for name, got, expect in (
            ("P(X,Y) = 4W<xi,eta>", bilinear(Ainf, X, Y), 4 * W * dot(xi, eta)),
            ("P(Z,X) = -2W<xi,xi>", bilinear(Ainf, Z, X), -2 * W * dot(xi, xi)),
            ("P(Z,Y) = 2W<eta,eta>", bilinear(Ainf, Z, Y), 2 * W * dot(eta, eta))):
        if simplify_scalar(got - expect + Fraction(0)) != 0:
            pair_ok = False
            mismatches.append(f"pairing identity failed: {name}")

    # kernel of the restricted constant form: dC and |eta|^2 X + |xi|^2 Y
    kernel_elems = [dC, [dot(eta, eta) * x + dot(xi, xi) * y for x, y in zip(X, Y)]]
    basis = [X, Y, Z, dC]
    G = [[simplify_scalar(bilinear(Ainf, u, v) + Fraction(0)) for v in basis] for u in basis]
    ker_G = nullspace(G, mode)
    ck_ok = len(ker_G) == 2
    for v in kernel_elems:
        coords = coords_in_span(basis, v, mode)
        if coords is None:
            ck_ok = False
            mismatches.append("claimed kernel element left the kernel span")
            continue
        img = mat_vec(G, coords)
        if any(simplify_scalar(x + Fraction(0)) != 0 for x in img):
            ck_ok = False
            mismatches.append("claimed kernel element is not annihilated")

    # structure recognition: one-dimensional center spanned by dC, derived
    # part three-dimensional with indefinite non-degenerate Killing form
    alg = LieAlgebra(4, "real")
    closed = True
    for (u, v, iu, iv) in ((X, Y, 0, 1), (X, Z, 0, 2), (X, dC, 0, 3),
                           (Y, Z, 1, 2), (Y, dC, 1, 3), (Z, dC, 2, 3)):
        w = bracket(u, v)
        coords = coords_in_span(basis, w, mode)
        if coords is None:
            closed = False
            mismatches.append("kernel bracket left the kernel span")
            break
        alg.set_bracket(iu, iv, coords)
    sl2_ok = False
    if closed:
        center = alg.center(mode)
        derived = alg.derived_basis(mode)
        if len(center) == 1 and len(derived) == 3:
            killing = [[sum(r1 * r2 for r1, r2 in zip(
                _flatten(alg.ad_matrix(x)), _flatten_t(alg.ad_matrix(y))))
                for y in derived] for x in derived]
            pos, negs, zero = symmetric_signature(killing)
            sl2_ok = (zero == 0 and pos == 2 and negs == 1)
            if not sl2_ok:
                mismatches.append(f"Killing signature {(pos, negs, zero)} is not sl(2,R)")
        else:
            mismatches.append("center/derived dimensions are not (1, 3)")
    return KernelAlgebraCheck(lam=lam, which=which, wronskian=W,
                              commutators_ok=comm_ok, pairings_ok=pair_ok,
                              cocycle_kernel_ok=ck_ok,
                              algebra_is_sl2_plus_center=sl2_ok,
                              mismatches=mismatches)


def _flatten(M):
    return [x for row in M for x in row]


def _flatten_t(M):
    m = len(M)
    return [M[j][i] for i in range(m) for j in range(m)]


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
                b.append(simplify_scalar(bi))
            pt = TodaPoint(n=n, a=a, b=b)
            if not lax_recursion_check(pt, xi, mu):
                continue
            doubles = [e for e in toda_spectrum_via_lax(pt)
                       if e.exact and e.lam == lam and e.multiplicity >= 2]
            if doubles:
                return pt
    raise ToleranceError("failed to construct a singular lattice point")


def constant_lattice(n: int, a=Fraction(1), b=Fraction(0)) -> TodaPoint:
    return TodaPoint(n=n, a=[Fraction(a)] * n, b=[Fraction(b)] * n)
