"""Linearization of a pencil at a spectrum value.

The kernel of P_lambda(x) carries a Lie bracket induced by the first
derivatives of the pencil, [xi, eta]_k = xi^T (d_k P_lambda) eta: the Gram
matrices of the d_k P_lambda on the kernel, one ``tensorfield.gram`` call
for all of them, over their nonzero entries when exact and as one array
contraction in floats.  ``exactlin.coords_in_span`` gives
the coordinates of each bracket: it clears the echelon kernel basis and the
brackets once, reads them off the basis's free columns (``exactlin.read_off``)
and checks each bracket against the whole basis.  The restriction of any
other bracket of the pencil supplies a compatible 2-cocycle.  All such
restrictions agree up to a nonzero factor, so the generator at the opposite
end of the pencil is used: ``kernel_form`` is the ``liealg.TwoCocycle`` of
``pencil.quotient_form`` there, on the kernel, built once; it decides
diagonalizability and becomes the cocycle, eliminated once for both.
At a rational lambda ``gram`` sums the brackets on ints; they reach
``coords_in_span`` as exact values, and the algebra holds its structure
constants as carrier ints over one denominator, on which the cocycle
identity is checked and from which Ker A's ad operators are built as rows
that the root decomposition splits as they are (``liealg.CocycleKernel``).
In float mode ``coords_in_span`` resolves all the brackets by one
least-squares solve, and the algebra's float reads contract one structure
array made from them (``liealg.LieAlgebra``).
"""

from __future__ import annotations

from .errors import PreconditionError, RankDeficientPointError
from .exactlin import coords_in_span, transpose
from .liealg import COMPLEX, REAL, LieAlgebra, LinearPencil, TwoCocycle, is_cocycle
from .pencil import quotient_form
from .scalars import EXACT, INF, Mode, is_inf, lambda_is_real
from .tensorfield import ZERO, PencilAtPoint, gram


def kernel_form(p: PencilAtPoint, lam, ker) -> TwoCocycle:
    """The ``TwoCocycle`` of the Gram matrix on ``ker`` = Ker P_lambda of Ainf,
    or of A0 at lambda = infinity."""
    return TwoCocycle(quotient_form(p, ker, ZERO if is_inf(lam) else INF))


def linearize(p: PencilAtPoint, lam, ker, form: TwoCocycle, mode: Mode = EXACT) -> LinearPencil:
    """Build the linear pencil (kernel algebra, cocycle ``form``) at ``lam``.

    ``ker`` is a basis of Ker P_lambda and ``form`` its ``kernel_form``.
    """
    m = len(ker)
    field_name = REAL if lambda_is_real(lam) else COMPLEX
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    # [ker_u, ker_v] has coordinates k = 1..dim, one per d_k P_lambda
    coords = coords_in_span(ker, transpose(gram(p.dim, p.derivatives, lam, ker, pairs)), mode)
    if coords is None:
        raise RankDeficientPointError(
            "kernel bracket escaped the kernel; the point does not attain the pencil rank")
    algebra = LieAlgebra(m, field_name)
    for (u, v), c in zip(pairs, coords):
        algebra.set_bracket(u, v, c)

    if not is_cocycle(algebra, form, mode):
        raise PreconditionError("restricted form failed the cocycle identity; "
                                "the generators are not compatible at this point")
    return LinearPencil(algebra=algebra, cocycle=form)
