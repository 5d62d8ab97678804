"""Linearization of a pencil at a spectrum value.

The kernel of P_lambda(x) carries a Lie bracket induced by the first
derivatives of the pencil, [xi, eta]_k = xi^T (d_k P_lambda) eta, contracted
over the nonzero entries of d_k P_lambda alone; exact coordinates of a bracket
are read off the kernel basis on columns where it is invertible, the identity
on the free columns of an echelon basis.  The restriction of any other bracket
of the pencil supplies a compatible 2-cocycle.  All such restrictions agree up
to a nonzero factor, so the generator at the opposite end of the pencil is
used: ``kernel_form`` is ``pencil.quotient_form`` there, on the kernel, built
once; the same matrix decides diagonalizability and becomes the cocycle.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import PreconditionError, RankDeficientPointError
from .exactlin import coords_in_span, decides_exactly, rref, solve, transpose
from .liealg import COMPLEX, REAL, LieAlgebra, LinearPencil, TwoCocycle, is_cocycle
from .pencil import quotient_form
from .scalars import EXACT, INF, Mode, is_inf, lambda_is_real, tidy
from .tensorfield import ZERO, PencilAtPoint, skew_cells


def kernel_form(p: PencilAtPoint, lam, ker):
    """Gram matrix on ``ker`` = Ker P_lambda of Ainf, or of A0 at lambda = infinity."""
    return quotient_form(p, ker, ZERO if is_inf(lam) else INF)


def linearize(p: PencilAtPoint, lam, ker, form, mode: Mode = EXACT) -> LinearPencil:
    """Build the linear pencil (kernel algebra, cocycle ``form``) at ``lam``.

    ``ker`` is a basis of Ker P_lambda and ``form`` its ``kernel_form``.
    """
    m = len(ker)
    field_name = REAL if lambda_is_real(lam) else COMPLEX

    # structure constants w_k = xi^T (d_k P_lambda) eta, summed as bilinear sums
    # them, each (d_k P_lambda) eta once; on ints with one scale S when every
    # value is a real rational
    rows = [[[] for _ in range(p.dim)] for _ in p.derivatives]
    for r, entries in zip(rows, p.derivatives):
        for i, j, upper, lower in skew_cells(entries, lam):
            r[i].append((j, upper))
            r[j].append((i, lower))
    values = [a for r in rows for row in r for _, a in row] + [x for u in ker for x in u]
    vecs, finish = ker, tidy
    if all(isinstance(x, (int, Fraction)) for x in values):
        S = math.lcm(*(x.denominator for x in values))
        rows = [[[(j, int(a * S)) for j, a in row] for row in r] for r in rows]
        vecs, finish = [[int(x * S) for x in u] for u in ker], lambda w: Fraction(w, S ** 3)
    images = [[[_sum(a * v[j] for j, a in row if a != 0 and v[j] != 0) for row in r]
               for v in vecs] for r in rows]
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    ws = [[finish(_sum(x * y for x, y in zip(vecs[u], image[v]) if x != 0)) for image in images]
          for u, v in pairs]
    coords = (_coordinates(ker, ws) if decides_exactly(ker + ws, mode)
              else coords_in_span(ker, ws, mode))
    if coords is None:
        raise RankDeficientPointError(
            "kernel bracket escaped the kernel; the point does not attain the pencil rank")
    algebra = LieAlgebra(m, field_name)
    for (u, v), c in zip(pairs, coords):
        algebra.set_bracket(u, v, c)

    cocycle = TwoCocycle(form)
    if not is_cocycle(algebra, cocycle, mode):
        raise PreconditionError("restricted form failed the cocycle identity; "
                                "the generators are not compatible at this point")
    return LinearPencil(algebra=algebra, cocycle=cocycle)


def _sum(terms):
    """The terms added left to right to 0, as ``bilinear`` adds them, so that a
    float sum keeps its bits (``sum`` may compensate a float sum)."""
    return functools.reduce(operator.add, terms, 0)


def _coordinates(ker, ws):
    """Exact coordinates of each of ``ws`` in span(ker), or None if one is
    outside: solved on m columns where the basis is invertible, where it is the
    identity if it has such columns, and checked against the whole basis."""
    units = [[j for j, x in enumerate(u) if x == 1 and sum(v[j] != 0 for v in ker) == 1]
             for u in ker]
    cols = [js[0] for js in units] if all(units) else rref(ker)[1]
    at_cols = [[w[j] for w in ws] for j in cols]
    coords = transpose(at_cols if all(units) else
                       solve([[u[j] for u in ker] for j in cols], at_cols))
    for w, c in zip(ws, coords):
        terms = [(ct, u) for ct, u in zip(c, ker) if ct != 0]
        if any(wj != sum(ct * u[j] for ct, u in terms if u[j] != 0) for j, wj in enumerate(w)):
            return None
    return coords
