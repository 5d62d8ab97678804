"""Linearization of a pencil at a spectrum value.

The kernel of P_lambda(x) carries a Lie bracket induced by the first
derivatives of the pencil, and the restriction of any other bracket of the
pencil supplies a compatible 2-cocycle (all such restrictions agree up to a
nonzero factor, so the generator at the opposite end of the pencil is used).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError, RankDeficientPointError
from .exactlin import bilinear, coords_in_span
from .liealg import COMPLEX, REAL, LieAlgebra, LinearPencil, TwoCocycle, is_cocycle
from .pencil import IsotropicCore, Spectrum, kernel_basis
from .scalars import (EXACT, Mode, conj, is_exact_scalar, is_inf,
                      lambda_is_real, simplify_scalar)
from .tensorfield import PencilAtPoint


def linearize(p: PencilAtPoint, core: IsotropicCore, lam,
              mode: Mode = EXACT, spectrum: Spectrum | None = None) -> LinearPencil:
    """Build the linear pencil (kernel algebra, restricted cocycle) at ``lam``.

    For a regular ``lam`` the kernel algebra is Abelian and the cocycle is
    non-degenerate; this is flagged on the result rather than raised.
    """
    ker = kernel_basis(p, lam, mode)
    m = len(ker)
    d = p.dim

    field_name = REAL if lambda_is_real(lam) else COMPLEX

    # structure constants: w_k = xi^T (d_k P_lambda) eta, expressed in the kernel
    derivs = [p.derivative_at(lam, k) for k in range(d)]
    algebra = LieAlgebra(m, field_name)
    for u in range(m):
        for v in range(u + 1, m):
            w = [_tidy(bilinear(derivs[k], ker[u], ker[v])) for k in range(d)]
            coords = coords_in_span(ker, w, mode, scale=_scale_of(w))
            if coords is None:
                raise RankDeficientPointError(
                    "kernel bracket escaped the kernel; the point does not attain "
                    "the pencil rank")
            algebra.set_bracket(u, v, coords)

    generator = p.A0 if is_inf(lam) else p.Ainf
    C = [[_tidy(bilinear(generator, ker[r], ker[s])) for s in range(m)] for r in range(m)]
    cocycle = TwoCocycle(C)
    if not is_cocycle(algebra, cocycle, mode):
        raise PreconditionError("restricted form failed the cocycle identity; "
                                "the generators are not compatible at this point")

    regular_marker = False
    if spectrum is not None:
        in_spectrum = any(_same_lambda(lam, e.lam, mode) or
                          (e.paired and _same_lambda(lam, _conj_lambda(e.lam), mode))
                          for e in spectrum.entries)
        if not in_spectrum:
            regular_marker = True
    return LinearPencil(algebra=algebra, cocycle=cocycle, origin_lambda=lam,
                        regular_marker=regular_marker)


def _tidy(v):
    return simplify_scalar(v + Fraction(0)) if is_exact_scalar(v) else v


def _scale_of(w) -> float:
    return max([abs(complex(x)) for x in w] + [1.0])


def _conj_lambda(lam):
    if is_inf(lam):
        return lam
    return conj(lam)


def _same_lambda(a, b, mode: Mode) -> bool:
    if is_inf(a) or is_inf(b):
        return is_inf(a) and is_inf(b)
    if is_exact_scalar(a) and is_exact_scalar(b):
        return a == b
    za, zb = complex(a), complex(b)
    return abs(za - zb) <= 10 * max(mode.eps, 1e-12) * max(1.0, abs(za))
