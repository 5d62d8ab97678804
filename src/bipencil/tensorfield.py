"""Polynomial Poisson tensor fields and their point evaluations.

A field's entries and their first derivatives are evaluated at a point in Q
on the ints of the point, cleared once per call (``poly.cleared``), each
value made a Fraction at the end.  A pencil at a point is held as its
nonzero entries; ``skew_cells`` computes
their cells at a parameter, from which ``skew`` builds the dense P_lambda,
and ``gram`` the Gram matrices of P_lambda or of d_k P_lambda on a basis:
the quotient form, the kernel form and the kernel bracket are all one
contraction, exact over the nonzero cells, in floats over one dense array
of all the matrices.  Every exact rank and kernel
decision reads ``PencilAtPoint.elimination_at`` instead: one elimination of
P_lambda per lambda, kept with its kernel.  Entries in Q are eliminated as
``integer_matrix_at``, a positive multiple of P_lambda in its carrier's rows
(ints or Z[sqrt d] pairs).  Float ones read ``float_matrix_at``, P_lambda
with each exact value converted to a float once, and its one SVD per
lambda, ``PencilAtPoint.svd_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonRationalPointError
from .exactlin import Elimination, as_float, carrier, eliminate, primitive_row, svd, to_numpy
from .poly import Poly, cleared
from .scalars import INF, QQi, is_exact_scalar, is_inf, quadratic_field, tidy

ZERO = Fraction(0)


class PoissonTensorField:
    """Skew tensor P^{ij}(x) with polynomial entries; only i<j is stored."""

    def __init__(self, dim: int, varnames=None):
        if dim < 1:
            raise DimensionMismatchError("dimension must be positive")
        self.dim = dim
        self.vars = list(varnames) if varnames else [f"x{i + 1}" for i in range(dim)]
        if len(self.vars) != dim:
            raise DimensionMismatchError("variable list length must equal dim")
        self._entries: dict = {}

    def set_entry(self, i: int, j: int, poly: Poly):
        if not (0 <= i < self.dim and 0 <= j < self.dim) or i == j:
            raise DimensionMismatchError(f"bad entry index ({i}, {j})")
        if poly.nvars != self.dim:
            raise DimensionMismatchError("entry arity mismatch")
        if i > j:
            i, j, poly = j, i, -poly
        if poly.is_zero():
            self._entries.pop((i, j), None)
        else:
            self._entries[(i, j)] = poly

    def entry(self, i: int, j: int) -> Poly:
        if i == j:
            return Poly.zero(self.dim)
        if i < j:
            return self._entries.get((i, j), Poly.zero(self.dim))
        return -self._entries.get((j, i), Poly.zero(self.dim))

    def upper_entries(self):
        return dict(self._entries)

    def values_at(self, point) -> dict:
        """{(i, j): P^{ij}(point)} over the stored entries, i < j; a point in
        Q is cleared once for all of them."""
        xq = cleared(point)
        return {ij: p.eval(point, xq) for ij, p in self._entries.items()}

    def derivatives_at(self, point) -> list:
        """Per coordinate k, {(i, j): d/dx_k P^{ij}(point)} over the entries
        containing x_k; a point in Q is cleared once for all of them."""
        xq = cleared(point)
        out = [{} for _ in range(self.dim)]
        for ij, p in self._entries.items():
            for k, value in p.partials(point, xq).items():
                out[k][ij] = value
        return out


def lift(poly: Poly, dim: int, offset: int) -> Poly:
    """``poly`` in ``dim`` variables, its variable t renamed to offset + t."""
    out = {}
    for mono, c in poly.terms.items():
        m = [0] * dim
        for t, e in enumerate(mono):
            m[offset + t] = e
        out[tuple(m)] = c
    return Poly(dim, out)


def skew_cells(entries, lam):
    """(i, j, cell ij, cell ji) per upper entry (i, j, a0, ainf) of the skew
    matrix a0 + lam * ainf (ainf alone at lam = INF).  Each cell is computed as
    the dense sum A0 + lam * Ainf computes it, the lower one from -a0 and
    -ainf, so that float cells keep their signed zeros."""
    if is_inf(lam):
        return [(i, j, ainf, -ainf) for i, j, _, ainf in entries]
    return [(i, j, a0 + lam * ainf, -a0 + lam * -ainf) for i, j, a0, ainf in entries]


def gram(dim: int, matrices, lam, basis, pairs):
    """u^T M v per matrix M of ``matrices``, sorted lists of upper entries as
    ``skew_cells`` takes them, at ``lam``, per pair (u, v) of ``pairs``
    (indices into ``basis``): one list of values per matrix.

    Exact, it is contracted over the nonzero cells alone: each M v once,
    then u^T (M v), zero terms skipped.  Where lambda and every value are
    real rationals the cells are ints, b A0 + a Ainf at lambda = a / b, over
    one scale S b for all the matrices, and the sums run on ints, the basis
    over S too.  Where lambda or any value is a float, every
    value is made a complex float once, the matrices become one dense array
    A0 + lambda Ainf of them all, and the values are its one contraction
    B M B^T with the basis B.
    """
    values = [x for entries in matrices for _, _, *pair in entries for x in pair] + \
        [x for u in basis for x in u]
    if not all(is_exact_scalar(x) for x in values) or not (is_inf(lam) or is_exact_scalar(lam)):
        return _float_gram(dim, matrices, lam, basis, pairs)
    rows = [[[] for _ in range(dim)] for _ in matrices]
    vecs, finish = basis, tidy
    if (is_inf(lam) or isinstance(lam, (int, Fraction))) and \
            all(isinstance(x, (int, Fraction)) for x in values):
        # lam = a / b (INF as 1 / 0): b M = b A0 + a Ainf, on the ints of S A0, S Ainf
        a, b = (1, 0) if is_inf(lam) else lam.as_integer_ratio()
        S = math.lcm(*(x.denominator for x in values))
        S3b = S ** 3 * (b or 1)

        def scaled(x):
            return x.numerator * (S // x.denominator)

        for r, entries in zip(rows, matrices):
            for i, j, a0, ainf in entries:
                c = b * scaled(a0) + a * scaled(ainf)
                r[i].append((j, c))
                r[j].append((i, -c))
        vecs, finish = [[scaled(x) for x in u] for u in basis], lambda w: Fraction(w, S3b)
    else:
        for r, entries in zip(rows, matrices):
            for i, j, upper, lower in skew_cells(entries, lam):
                r[i].append((j, upper))
                r[j].append((i, lower))
    images = [[[sum(a * v[j] for j, a in row if a != 0 and v[j] != 0) for row in r]
               for v in vecs] for r in rows]
    return [[finish(sum(x * y for x, y in zip(vecs[u], image[v]) if x != 0))
             for u, v in pairs] for image in images]


def _float_gram(dim: int, matrices, lam, basis, pairs):
    """``gram`` in floats: B M B^T for all the matrices at once, M = A0 +
    lambda Ainf (Ainf at INF) the dense (k, dim, dim) array of their cells,
    each value made a complex float once (``to_numpy``)."""
    if not pairs:
        return [[] for _ in matrices]
    M = np.zeros((len(matrices), dim, dim), dtype=complex)
    cells = [(t, i, j, a0, ainf) for t, entries in enumerate(matrices)
             for i, j, a0, ainf in entries]
    if cells:
        t, i, j, a0, ainf = map(list, zip(*cells))
        a0, ainf = to_numpy(a0), to_numpy(ainf)
        M[t, i, j] = ainf if is_inf(lam) else a0 + complex(lam) * ainf
        M[t, j, i] = -M[t, i, j]
    B = to_numpy(basis).reshape(len(basis), dim)
    u, v = map(list, zip(*pairs))
    return (B @ M @ B.T)[:, u, v].tolist()


def skew(dim: int, entries, lam):
    """The dense skew matrix of ``skew_cells(entries, lam)``."""
    zero = ZERO if is_inf(lam) else ZERO + lam * ZERO
    M = [[zero] * dim for _ in range(dim)]
    for i, j, upper, lower in skew_cells(entries, lam):
        M[i][j], M[j][i] = upper, lower
    return M


@dataclass
class PencilAtPoint:
    """A pencil at one point, as its nonzero entries.

    ``entries`` lists (i, j, a0, ainf) for i < j, sorted, with a0 and ainf the
    values of P_0^{ij} and P_inf^{ij} at the point, not both zero;
    ``derivatives[k]`` lists the same for d/dx_k of the two ``generators``,
    evaluated on first use: only the linearization at a spectrum value reads
    them.  A constant pencil has no generators and no derivatives.  Float
    decisions read ``svd_at``, exact ones ``elimination_at`` at any exact
    lambda, INF included.
    """

    dim: int
    entries: list
    point: list
    generators: tuple | None = None      # (field0, field_inf)

    @cached_property
    def derivatives(self) -> list:
        if self.generators is None:
            return [[] for _ in range(self.dim)]
        field0, field_inf = self.generators
        return [_nonzero_pairs(d0, dinf) for d0, dinf in
                zip(field0.derivatives_at(self.point), field_inf.derivatives_at(self.point))]

    @cached_property
    def _integer_values(self):
        """(ints, D): a0, ainf of each entry in turn, times one rational scale
        D > 0, as ints; None for entries off Q, which have no integer form."""
        values = [x for _, _, *pair in self.entries for x in pair]
        if all(isinstance(x, (int, Fraction)) for x in values):
            ints = primitive_row(values)
            return ints, next((Fraction(a) / x for a, x in zip(ints, values) if x), Fraction(1))

    @cached_property
    def _float_values(self):
        """(i, j, a0, ainf, -a0, -ainf) per entry by ``as_float``: float(-a0) keeps a -0.0."""
        return [(i, j, *map(as_float, (a0, ainf, -a0, -ainf))) for i, j, a0, ainf in self.entries]

    def integer_matrix_at(self, lam):
        """D (b A0 + (a + c sqrt d) Ainf) at lam = (a + c sqrt d)/b, D Ainf at
        INF (read as a, c, b = 1, 0, 0), with D > 0 the scale of
        ``_integer_values``, in its carrier's rows: ints where c = 0, else the
        (x, y) int pairs x + y sqrt d that Z[sqrt d] eliminates; None for an
        inexact lam or entries off Q.  A nonzero multiple of P_lambda has its
        rank and kernel, but not its values (a quotient form needs those)."""
        if self._integer_values is None or not (is_inf(lam) or is_exact_scalar(lam)):
            return None
        ints, _ = self._integer_values
        a, c, b = 1, 0, 0
        if not is_inf(lam):
            re, im = (lam.re, lam.im) if isinstance(lam, QQi) else (lam, 0)
            (a, q), (c, s) = re.as_integer_ratio(), im.as_integer_ratio()
            b = math.lcm(q, s)
            a, c = a * (b // q), c * (b // s)
        M = [[(0, 0) if c else 0] * self.dim for _ in range(self.dim)]
        for (i, j, _, _), a0, ainf in zip(self.entries, ints[::2], ints[1::2]):
            x, y = b * a0 + a * ainf, c * ainf
            M[i][j], M[j][i] = ((x, y), (-x, -y)) if c else (x, -x)
        return M

    @cached_property
    def _eliminations(self) -> dict:
        return {}

    def elimination_at(self, lam):
        """The ``exactlin.Elimination`` of P_lambda: its rank at once, its
        kernel when first asked for.  Entries in Q give the rows of
        ``integer_matrix_at(lam)``: its Z[sqrt d] pairs at a lambda in
        Q(sqrt d) as they are, its ints made primitive by ``eliminate``, which
        also clears ``matrix_at(lam)`` of other entries and refuses a float.
        One per lambda, INF included, made on first use and kept, so the rank
        samples, the core, the spectrum and each per-lambda kernel eliminate
        each P_lambda once."""
        if lam not in self._eliminations:
            rows = self.integer_matrix_at(lam)
            d = None if rows is None else 0 if is_inf(lam) else quadratic_field([lam])
            self._eliminations[lam] = (Elimination(rows, carrier(d)) if d else
                                       eliminate(self.matrix_at(lam) if rows is None else rows, d))
        return self._eliminations[lam]

    @cached_property
    def _svds(self) -> dict:
        return {}

    def svd_at(self, lam):
        """The ``exactlin.SVD`` of ``float_matrix_at(lam)``, the float
        counterpart of ``elimination_at``: one per lambda, made on first use
        and kept, so that float mode's rank samples, regular parameters,
        spectrum checks and kernels decompose each P_lambda once."""
        if lam not in self._svds:
            self._svds[lam] = svd(self.float_matrix_at(lam))
        return self._svds[lam]

    def float_matrix_at(self, lam):
        """to_numpy(matrix_at(lam)) bit for bit, each exact value converted once:
        at an exact real lambda = a/b (INF) the int cells of ``integer_matrix_at``
        over its scale D b (D), correctly rounded; at a float one ``skew_cells``'
        float operations on ``_float_values``.  Else the dense ``skew``."""
        if self._integer_values is not None:
            if is_inf(lam) or isinstance(tidy(lam), Fraction):
                b = 1 if is_inf(lam) else tidy(lam).denominator
                num, den = (self._integer_values[1] * b).as_integer_ratio()
                M = self.integer_matrix_at(lam)
                return to_numpy([[x * den / num for x in row] for row in M])
            if not is_exact_scalar(lam):
                M = [[0.0 + lam * 0.0] * self.dim for _ in range(self.dim)]
                for i, j, a0, ainf, m0, minf in self._float_values:
                    M[i][j], M[j][i] = a0 + lam * ainf, m0 + lam * minf
                return to_numpy(M)
        return to_numpy(self.matrix_at(lam))

    @property
    def A0(self):
        return self.matrix_at(ZERO)

    @property
    def Ainf(self):
        return self.matrix_at(INF)

    def matrix_at(self, lam):
        """P_lambda(x) = A0 + lam * Ainf, with lam = INF meaning Ainf alone."""
        return skew(self.dim, self.entries, lam)


def _nonzero_pairs(values0: dict, values_inf: dict) -> list:
    """Sorted (i, j, v0, vinf) over the keys (i, j) of either dict, a missing
    value zero, with no entry zero in both."""
    pairs = [(i, j, values0.get((i, j), ZERO), values_inf.get((i, j), ZERO))
             for i, j in sorted(values0.keys() | values_inf.keys())]
    return [e for e in pairs if e[2] != 0 or e[3] != 0]


def evaluate_pencil(field0: PoissonTensorField, field_inf: PoissonTensorField,
                    point, exact_required: bool = False) -> PencilAtPoint:
    """Evaluate both generators at a point; their first derivatives follow on
    first use of ``PencilAtPoint.derivatives``.

    Evaluation is exact whenever the point is rational; float points are
    allowed only when ``exact_required`` is False.
    """
    if field0.dim != field_inf.dim or field0.vars != field_inf.vars:
        raise DimensionMismatchError("pencil generators live on different spaces")
    if len(point) != field0.dim:
        raise DimensionMismatchError(
            f"point has arity {len(point)}, expected {field0.dim}")
    if exact_required and not all(is_exact_scalar(x) for x in point):
        raise NonRationalPointError("exact mode requires a rational point")
    return PencilAtPoint(field0.dim,
                         _nonzero_pairs(field0.values_at(point), field_inf.values_at(point)),
                         list(point), (field0, field_inf))


def constant_pencil(A0, Ainf) -> PencilAtPoint:
    """PencilAtPoint for a constant pair of skew matrices (derivatives vanish)."""
    d = len(A0)
    entries = [(i, j, A0[i][j], Ainf[i][j]) for i in range(d) for j in range(i + 1, d)
               if A0[i][j] != 0 or Ainf[i][j] != 0]
    return PencilAtPoint(d, entries, [ZERO] * d)
