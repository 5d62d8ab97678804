"""Polynomial Poisson tensor fields and their point evaluations."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, NonRationalPointError
from .exactlin import mat_add, mat_scale
from .poly import Poly
from .scalars import is_exact_scalar, is_inf


class PoissonTensorField:
    """Skew tensor P^{ij}(x) with polynomial entries; only i<j is stored."""

    def __init__(self, dim: int, varnames=None, entries=None):
        if dim < 1:
            raise DimensionMismatchError("dimension must be positive")
        self.dim = dim
        self.vars = list(varnames) if varnames else [f"x{i + 1}" for i in range(dim)]
        if len(self.vars) != dim:
            raise DimensionMismatchError("variable list length must equal dim")
        self._entries: dict = {}
        if entries:
            for (i, j), poly in entries.items():
                self.set_entry(i, j, poly)

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

    def add_to_entry(self, i: int, j: int, poly: Poly):
        if i > j:
            i, j, poly = j, i, -poly
        total = self._entries.get((i, j), Poly.zero(self.dim)) + poly
        self._entries.pop((i, j), None)
        if not total.is_zero():
            self._entries[(i, j)] = total

    def entry(self, i: int, j: int) -> Poly:
        if i == j:
            return Poly.zero(self.dim)
        if i < j:
            return self._entries.get((i, j), Poly.zero(self.dim))
        return -self._entries.get((j, i), Poly.zero(self.dim))

    def upper_entries(self):
        return dict(self._entries)

    def matrix_at(self, point):
        vals = {}
        for (i, j), p in self._entries.items():
            vals[(i, j)] = p.eval(point)
        zero = Fraction(0) if all(is_exact_scalar(x) for x in point) else 0.0
        M = [[zero for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j), v in vals.items():
            M[i][j] = v
            M[j][i] = -v
        return M

    def derivative_tensors_at(self, point):
        """List over k of the skew matrices d/dx_k P^{ij} evaluated at point."""
        zero = Fraction(0) if all(is_exact_scalar(x) for x in point) else 0.0
        out = []
        for k in range(self.dim):
            M = [[zero for _ in range(self.dim)] for _ in range(self.dim)]
            out.append(M)
        for (i, j), p in self._entries.items():
            for k in range(self.dim):
                dp = p.diff(k)
                if dp.is_zero():
                    continue
                v = dp.eval(point)
                out[k][i][j] = v
                out[k][j][i] = -v
        return out

    # -- structural checks -------------------------------------------------
    def jacobi_defect(self, i: int, j: int, k: int) -> Poly:
        """The (i,j,k) component of the Jacobiator, as an exact polynomial."""
        total = Poly.zero(self.dim)
        for l in range(self.dim):
            total = total + self.entry(l, k) * self.entry(i, j).diff(l)
            total = total + self.entry(l, i) * self.entry(j, k).diff(l)
            total = total + self.entry(l, j) * self.entry(k, i).diff(l)
        return total

    def verify_jacobi(self) -> bool:
        """Exact polynomial Jacobi identity over all index triples."""
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    if not self.jacobi_defect(i, j, k).is_zero():
                        return False
        return True

    def scale(self, c) -> "PoissonTensorField":
        out = PoissonTensorField(self.dim, self.vars)
        for (i, j), p in self._entries.items():
            out.set_entry(i, j, p * c)
        return out

    def add(self, other: "PoissonTensorField") -> "PoissonTensorField":
        if other.dim != self.dim:
            raise DimensionMismatchError("field dimension mismatch")
        out = PoissonTensorField(self.dim, self.vars)
        keys = set(self._entries) | set(other._entries)
        for (i, j) in keys:
            out.set_entry(i, j, self.entry(i, j) + other.entry(i, j))
        return out


def fields_compatible(field0: PoissonTensorField, field_inf: PoissonTensorField) -> bool:
    """Exact compatibility: the sum of two Poisson fields is again Poisson.

    Each field must satisfy Jacobi on its own; the mixed identity is then
    equivalent to Jacobi for field0 + field_inf.
    """
    return (field0.verify_jacobi() and field_inf.verify_jacobi()
            and field0.add(field_inf).verify_jacobi())


def direct_sum(a0: PoissonTensorField, ainf: PoissonTensorField,
               b0: PoissonTensorField, binf: PoissonTensorField):
    """Block-diagonal concatenation of two pencils."""
    d = a0.dim + b0.dim
    names = [f"p.{v}" for v in a0.vars] + [f"q.{v}" for v in b0.vars]

    def lift(poly: Poly, offset: int) -> Poly:
        out = {}
        for mono, c in poly.terms.items():
            newmono = [0] * d
            for t, e in enumerate(mono):
                newmono[offset + t] = e
            out[tuple(newmono)] = c
        return Poly(d, out)

    def combine(fa: PoissonTensorField, fb: PoissonTensorField) -> PoissonTensorField:
        out = PoissonTensorField(d, names)
        for (i, j), p in fa.upper_entries().items():
            out.set_entry(i, j, lift(p, 0))
        off = a0.dim
        for (i, j), p in fb.upper_entries().items():
            out.set_entry(i + off, j + off, lift(p, off))
        return out

    return combine(a0, b0), combine(ainf, binf)


@dataclass
class PencilAtPoint:
    """A pencil evaluated at one point: the two skew matrices plus first derivatives."""

    dim: int
    A0: list
    Ainf: list
    dA0: list
    dAinf: list
    point: list

    def matrix_at(self, lam):
        """P_lambda(x) = A0 + lam * Ainf, with lam = INF meaning Ainf alone."""
        if is_inf(lam):
            return [list(row) for row in self.Ainf]
        return mat_add(self.A0, mat_scale(self.Ainf, lam))

    def derivative_at(self, lam, k: int):
        """d/dx_k of P_lambda at the point."""
        if is_inf(lam):
            return [list(row) for row in self.dAinf[k]]
        return mat_add(self.dA0[k], mat_scale(self.dAinf[k], lam))


def evaluate_pencil(field0: PoissonTensorField, field_inf: PoissonTensorField,
                    point, exact_required: bool = False) -> PencilAtPoint:
    """Evaluate both generators and their first derivatives at a point.

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
    return PencilAtPoint(
        dim=field0.dim,
        A0=field0.matrix_at(point),
        Ainf=field_inf.matrix_at(point),
        dA0=field0.derivative_tensors_at(point),
        dAinf=field_inf.derivative_tensors_at(point),
        point=list(point),
    )


def constant_pencil(A0, Ainf) -> PencilAtPoint:
    """PencilAtPoint for a constant pair of skew matrices (derivatives vanish)."""
    d = len(A0)
    return PencilAtPoint(
        dim=d,
        A0=[list(r) for r in A0],
        Ainf=[list(r) for r in Ainf],
        dA0=[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)],
        dAinf=[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)],
        point=[Fraction(0)] * d,
    )
