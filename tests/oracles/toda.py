"""The periodic Toda lattice at a double Lax eigenvalue, in closed form.

At a double (anti)periodic eigenvalue mu = -lambda of the doubled Lax matrix,
two solutions xi, eta of the eigen-recursion span its solution space.  Their
products fold to covectors X = xi xi, Y = eta eta and Z = xi eta, which with
the gradient dC of the common Casimir sum(log a_i) span Ker P_lambda.  On this
basis the kernel algebra is sl(2, R) + R, with W the Wronskian of xi and eta:

    [X, Y] = 4W Z,   [Z, X] = -2W X,   [Z, Y] = 2W Y,   dC central.

The b-b entries of the quadratic table make the first coefficient 4W, not 2W:
d{f, g} contracted against d/da_i(-2 a_i^2) = -4 a_i.  The constant generator
pairs the basis as P(X, Y) = 4W<xi, eta>, P(Z, X) = -2W<xi, xi> and
P(Z, Y) = 2W<eta, eta>, with <., .> summed over one period, and pairs dC with
nothing; dC and |eta|^2 X + |xi|^2 Y span the kernel of that form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from bipencil.errors import PreconditionError
from bipencil.exactlin import nullspace
from bipencil.liealg import REAL, LieAlgebra, LinearPencil, TwoCocycle
from bipencil.poly import Poly
from bipencil.tensorfield import PencilAtPoint, PoissonTensorField, evaluate_pencil
from bipencil.toda import TodaPoint, jacobi_block, toda_pencil

F = Fraction


def toda_pencil_by_poly_sums(n: int):
    """The two generators of the lattice pencil built by ``Poly`` arithmetic:
    each edge's bracket added to its entry as a polynomial, an entry whose sum
    is zero dropped (at n = 2 the two (a_1, a_2) contributions cancel)."""
    d = 2 * n
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    p0 = PoissonTensorField(d, names)
    pinf = PoissonTensorField(d, names)

    def add(f, i, j, poly):
        f.set_entry(i, j, f.entry(i, j) + poly)

    def va(i):
        return Poly.variable(d, i % n)

    def vb(i):
        return Poly.variable(d, n + (i % n))

    for i in range(n):
        j = (i + 1) % n
        add(p0, i, n + i, va(i) * vb(i))
        add(p0, i, n + j, -(va(i) * vb(j)))
        add(p0, i, j, va(i) * va(j) * F(-1, 2))
        add(p0, n + i, n + j, va(i) * va(i) * F(-2))
        add(pinf, i, n + i, va(i))
        add(pinf, i, n + j, -va(i))
    return p0, pinf


def constant_lattice(n: int, a=F(1), b=F(0)) -> TodaPoint:
    return TodaPoint(n=n, a=[F(a)] * n, b=[F(b)] * n)


def toda_pencil_at(pt: TodaPoint) -> PencilAtPoint:
    p0, pinf = toda_pencil(pt.n)
    return evaluate_pencil(p0, pinf, pt.coordinates())


def lax_matrix(pt: TodaPoint):
    """The symmetric 2n x 2n Jacobi matrix on the double period, corners
    closing the cycle."""
    n, m = pt.n, 2 * pt.n
    L = [[F(0)] * m for _ in range(m)]
    for r in range(m):
        L[r][r] = pt.b[r % n]
        if r + 1 < m:
            L[r][r + 1] = L[r + 1][r] = pt.a[r % n]
    L[0][m - 1] = L[m - 1][0] = pt.a[n - 1]
    return L


def casimir_gradient(pt: TodaPoint):
    """Gradient of the common Casimir sum(log a_i): (1/a_i, ..., 0, ...)."""
    return [F(1) / x for x in pt.a] + [F(0)] * pt.n


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


def double_eigensolutions(pt: TodaPoint, lam):
    """Two independent (anti)periodic solutions certifying pencil parameter ``lam``.

    Solves at the Lax eigenvalue mu = -lam; returns (xi, eta, which) and
    raises if the eigenvalue is not double in one parity class.
    """
    mu = -lam
    for which, sign in (("periodic", 1), ("antiperiodic", -1)):
        block = jacobi_block(pt, sign)
        shifted = [[block[i][j] - (mu if i == j else 0) for j in range(pt.n)]
                   for i in range(pt.n)]
        ker = nullspace(shifted)
        if len(ker) >= 2:
            xi, eta = (list(v) + [sign * x for x in v] for v in ker[:2])
            return xi, eta, which
    raise PreconditionError(f"{lam} is not in the pencil spectrum (no double "
                            "periodic or antiperiodic eigenvalue)")


class ClosedFormKernel(NamedTuple):
    which: str            # parity class of xi and eta: "periodic" | "antiperiodic"
    wronskian: object
    basis: list           # X, Y, Z, dC
    pencil: LinearPencil  # the bracket table and the pairings on the basis
    form_kernel: list     # dC and |eta|^2 X + |xi|^2 Y, in basis coordinates


def toda_kernel_algebra(pt: TodaPoint, lam) -> ClosedFormKernel:
    """The kernel of P_lambda at a singular parameter ``lam`` and the linear
    pencil the module docstring's table puts on it, with eta taken orthogonal
    to xi over one period."""
    xi, eta_raw, which = double_eigensolutions(pt, lam)

    def dot(u, v):
        return sum(u[i] * v[i] for i in range(pt.n))

    eta = [dot(xi, xi) * y - dot(xi, eta_raw) * x for x, y in zip(xi, eta_raw)]
    W = wronskian(pt, xi, eta)
    X, Y, Z = (fold_to_covector(pt, *kernel_product(u, v))
               for u, v in ((xi, xi), (eta, eta), (xi, eta)))
    algebra = LieAlgebra(4, REAL, ["X", "Y", "Z", "dC"])
    algebra.set_bracket(0, 1, [0, 0, 4 * W, 0])
    algebra.set_bracket(2, 0, [-2 * W, 0, 0, 0])
    algebra.set_bracket(2, 1, [0, 2 * W, 0, 0])
    form = [[F(0)] * 4 for _ in range(4)]
    for (i, j), v in {(0, 1): 4 * W * dot(xi, eta), (2, 0): -2 * W * dot(xi, xi),
                      (2, 1): 2 * W * dot(eta, eta)}.items():
        form[i][j], form[j][i] = v, -v
    return ClosedFormKernel(which, W, [X, Y, Z, casimir_gradient(pt)],
                            LinearPencil(algebra, TwoCocycle(form)),
                            [[F(0), F(0), F(0), F(1)], [dot(eta, eta), dot(xi, xi), F(0), F(0)]])
