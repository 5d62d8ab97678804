"""Lie algebras and constructions the tests use beside the catalog's: real
algebras over C, the Heisenberg, Euclidean and abelian algebras,
one-dimensional central extensions and quotients by a central ideal; and
the float ad matrix by a loop over the brackets, the reference for the
library's array contraction."""

from __future__ import annotations

from fractions import Fraction

from bipencil.errors import PreconditionError
from bipencil.exactlin import Span, coords_in_span, identity
from bipencil.liealg import COMPLEX, REAL, LieAlgebra, TwoCocycle


def with_complex_scalars(g: LieAlgebra) -> LieAlgebra:
    """The real algebra ``g``'s structure constants over C (for complex-field
    linear pencils): so(3) gives so(3, C), the diamond the complex diamond."""
    out = LieAlgebra(g.dim, COMPLEX, g.labels)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            out.set_bracket(i, j, g.structure_vector(i, j))
    return out


def heisenberg() -> LieAlgebra:
    """[e1, e2] = e3."""
    g = LieAlgebra(3, REAL, ["e1", "e2", "e3"])
    g.set_bracket(0, 1, [0, 0, Fraction(1)])
    return g


def euclidean_e2() -> LieAlgebra:
    """e(2): [t,e]=f, [t,f]=-e, [e,f]=0 (basis e, f, t)."""
    g = LieAlgebra(3, REAL, ["e", "f", "t"])
    g.set_bracket(2, 0, [0, Fraction(1), 0])
    g.set_bracket(2, 1, [Fraction(-1), 0, 0])
    return g


def abelian(n: int, field: str = REAL) -> LieAlgebra:
    return LieAlgebra(n, field, [f"v{i + 1}" for i in range(n)])


def central_extension(algebra: LieAlgebra, cocycle: TwoCocycle) -> LieAlgebra:
    """One-dimensional central extension [x,y]_A = [x,y] + A(x,y) z."""
    d = algebra.dim
    out = LieAlgebra(d + 1, algebra.field, algebra.labels + ["z"])
    for i in range(d):
        for j in range(i + 1, d):
            vec = algebra.structure_vector(i, j) + [cocycle.matrix[i][j]]
            out.set_bracket(i, j, vec)
    if out.jacobi_violation() is not None:
        raise PreconditionError("central extension failed Jacobi (form is not closed)")
    # the lift of A must be the coboundary of the new dual coordinate
    for i in range(d):
        for j in range(i + 1, d):
            ei = [Fraction(1) if t == i else Fraction(0) for t in range(d + 1)]
            ej = [Fraction(1) if t == j else Fraction(0) for t in range(d + 1)]
            if out.bracket(ei, ej)[d] != cocycle.matrix[i][j]:
                raise PreconditionError("lifted form is not the coboundary of z*")
    return out


def quotient_by_central(algebra: LieAlgebra, ideal_basis) -> tuple:
    """Quotient by a central ideal; returns (algebra, complement_basis)."""
    for z in ideal_basis:
        adz = algebra.ad_matrix(z)
        if any(v != 0 for row in adz for v in row):
            raise PreconditionError("ideal basis vector is not central")
    ideal = [list(z) for z in ideal_basis]
    span = Span()
    full = span.extend(ideal) + span.extend(identity(algebra.dim))
    basis_mat = full[len(ideal):]
    m = len(basis_mat)
    out = LieAlgebra(m, algebra.field, [algebra.labels[e.index(1)] for e in basis_mat])
    for u in range(m):
        for v in range(u + 1, m):
            coords = coords_in_span(full, [algebra.bracket(basis_mat[u], basis_mat[v])])
            if coords is None:
                raise PreconditionError("quotient bracket left the span")
            out.set_bracket(u, v, coords[0][len(ideal):])
    if out.jacobi_violation() is not None:
        raise PreconditionError("quotient failed the Jacobi identity")
    return out, basis_mat


def loop_bracket(g: LieAlgebra, x, y):
    """[x, y] by a loop over the declared brackets of ``g``: each term
    (x_i y_j - x_j y_i) c_ij^k added to a running sum from 0, in the order
    the brackets were declared, zero terms skipped."""
    out = [0] * g.dim
    for (i, j), vec in g._c.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef != 0:
            for k, c in enumerate(vec):
                if c != 0:
                    out[k] = out[k] + coef * c
    return out


def loop_ad_matrix(g: LieAlgebra, x):
    """ad_x for a float x, its columns the ``loop_bracket`` [x, e_j] with e_j
    in floats."""
    d = g.dim
    return [list(row) for row in zip(*(loop_bracket(g, x, [float(t == j) for t in range(d)])
                                       for j in range(d)))]
