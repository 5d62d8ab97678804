"""The Casimir-variation operator D_f P_alpha, from the coordinate formula.

An oracle for the linearization: on the kernel of a singular bracket it acts
as the adjoint action of an explicit kernel element, it commutes with the
recursion operator on L^perp / L (``quotient_operator``), and
reparameterizing a Casimir combination leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from bipencil.errors import PreconditionError, ToleranceError
from bipencil.exactlin import coords_in_span, mat_vec, transpose
from bipencil.poly import Poly
from bipencil.scalars import EXACT, Mode, is_exact_scalar, is_inf, tidy
from bipencil.tensorfield import PencilAtPoint, skew

from oracles.eigensplit import restrict
from oracles.fields import gradient, hessian


@dataclass
class FunctionData:
    """A function known through its first two derivatives at the point."""

    gradient: list
    hessian: list
    description: str = ""


@dataclass
class CasimirVariation:
    matrix: list
    f_description: str
    alpha: object

    def restrict_to(self, basis):
        """Matrix of the operator on an invariant span of covectors."""
        M = restrict(self.matrix, basis)
        if M is None:
            raise PreconditionError("span is not invariant under the operator")
        return M


def function_data(q: Poly, point, description: str = "polynomial") -> FunctionData:
    """The first two derivatives of the polynomial ``q`` at ``point``."""
    return FunctionData(gradient=[g.eval(point) for g in gradient(q)],
                        hessian=[[h.eval(point) for h in row] for row in hessian(q)],
                        description=description)


def casimir_variation(p: PencilAtPoint, f, alpha, mode: Mode = EXACT) -> CasimirVariation:
    """The operator D_f P_alpha built from the coordinate formula.

    Requires df(x) in Ker P_alpha(x).  Entry (k, j) is
    sum_i [ d_k P^{ij} * df_i + P^{ij} * d^2f_{ik} ].
    """
    data = function_data(f, p.point) if isinstance(f, Poly) else f
    A = p.matrix_at(alpha)
    img = mat_vec(A, data.gradient)
    scale = max([abs(complex(x)) for row in A for x in row] + [1.0])
    if any(not mode.zero(v, scale) for v in img):
        raise PreconditionError("df(x) is not in Ker P_alpha(x)")
    d = p.dim
    D = [[Fraction(0)] * d for _ in range(d)]
    for k in range(d):
        dAk = skew(d, p.derivatives[k], alpha)
        for j in range(d):
            total = 0
            for i in range(d):
                total = total + dAk[i][j] * data.gradient[i] + A[i][j] * data.hessian[i][k]
            D[k][j] = tidy(total)
    return CasimirVariation(matrix=D, f_description=data.description, alpha=alpha)


def reparameterize_casimir_combination(alphas, alpha, beta):
    """Coefficients turning sum f_{alpha_i} with df in Ker P_alpha into the
    matching combination for the target bracket P_beta.

    Finite beta gives (alpha - alpha_i) / (beta - alpha_i); beta at infinity
    gives the projective limit (alpha - alpha_i), obtained by clearing beta.
    """
    if any(is_inf(a) for a in alphas):
        raise PreconditionError("combination members must have finite parameters")
    if not is_inf(beta) and beta in list(alphas):
        raise PreconditionError("beta collides with a combination parameter")
    if is_inf(alpha):
        raise PreconditionError("alpha at infinity is not supported")
    if not is_inf(beta) and beta == alpha:
        return [Fraction(1) for _ in alphas]
    if is_inf(beta):
        return [tidy(alpha - ai) for ai in alphas]
    return [tidy((alpha - ai) / (beta - ai)) for ai in alphas]


def combine_function_data(terms, coefficients=None) -> FunctionData:
    """Linear combination of FunctionData values (same point)."""
    if coefficients is None:
        coefficients = [Fraction(1)] * len(terms)
    d = len(terms[0].gradient)
    grad = [Fraction(0)] * d
    hess = [[Fraction(0)] * d for _ in range(d)]
    names = []
    for c, t in zip(coefficients, terms):
        for i in range(d):
            grad[i] = grad[i] + c * t.gradient[i]
            for j in range(d):
                hess[i][j] = hess[i][j] + c * t.hessian[i][j]
        names.append(f"{c}*({t.description})")
    return FunctionData(gradient=[tidy(g) for g in grad],
                        hessian=[[tidy(h) for h in row] for row in hess],
                        description=" + ".join(names))


def quotient_operator(op_matrix, qbasis, core_basis, mode: Mode = EXACT):
    """Matrix on L^perp / L induced by an operator preserving L and L^perp.

    Images are resolved in the combined (quotient + core) span and the core
    component is discarded.
    """
    coords = coords_in_span(list(qbasis) + list(core_basis),
                            [mat_vec(op_matrix, b) for b in qbasis], mode)
    if coords is None:
        raise ToleranceError("operator does not preserve the quotient span")
    return transpose([c[:len(qbasis)] for c in coords])
