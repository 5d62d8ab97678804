"""Finite-dimensional Lie algebras with 2-cocycles (linear pencils).

A linear pencil pairs a Lie algebra (structure constants over the reals or
Gaussian rationals) with a skew 2-cocycle; its pencil of forms on the dual is
<x, [xi, eta]> + lambda A(xi, eta).  Semisimplicity of ad is decided by the
eigen-split that yields the root spaces, ``exactlin.eigenspaces``, and the
regularity of a cocycle by the pencil rank of ``pencil.pencil_rank_corank``
at sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InputFormatError, PreconditionError
from .exactlin import (basis_union, bilinear, eigenspaces, identity, mat_rank, nullspace,
                       transpose)
from .poly import Poly
from .sampling import SamplingPolicy
from .pencil import pencil_rank_corank
from .scalars import EXACT, Mode, QQi, format_scalar, parse_int, parse_rational, tidy
from .tensorfield import PoissonTensorField, constant_pencil

REAL = "real"
COMPLEX = "complex"


class LieAlgebra:
    """Structure constants c_{ij}^k, antisymmetric in (i, j); 0-based indices."""

    def __init__(self, dim: int, field: str = REAL, basis_labels=None):
        if field not in (REAL, COMPLEX):
            raise DimensionMismatchError("field must be 'real' or 'complex'")
        self.dim = dim
        self.field = field
        self.labels = list(basis_labels) if basis_labels else [f"e{i + 1}" for i in range(dim)]
        self._c = {}

    def set_bracket(self, i: int, j: int, vector):
        """Declare [e_i, e_j] = vector (and the antisymmetric partner)."""
        if i == j:
            raise DimensionMismatchError("bracket of a basis vector with itself")
        vec = [tidy(v) for v in vector]
        if len(vec) != self.dim:
            raise DimensionMismatchError("bracket value arity mismatch")
        if i > j:
            i, j = j, i
            vec = [-v for v in vec]
        if any(v != 0 for v in vec):
            self._c[(i, j)] = vec
        else:
            self._c.pop((i, j), None)

    def structure_vector(self, i: int, j: int):
        if i == j:
            return [Fraction(0)] * self.dim
        if i < j:
            return list(self._c.get((i, j), [Fraction(0)] * self.dim))
        return [-v for v in self._c.get((j, i), [Fraction(0)] * self.dim)]

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y."""
        out = [Fraction(0)] * self.dim
        for (i, j), vec in self._c.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef != 0:
                for k in range(self.dim):
                    if vec[k] != 0:
                        out[k] = out[k] + coef * vec[k]
        return [tidy(v) for v in out]

    def ad_matrix(self, x):
        """Matrix of ad_x = [x, .] on the basis: its columns are the [x, e_j]."""
        return transpose([self.bracket(x, e) for e in identity(self.dim)])

    def jacobi_violation(self):
        """First violating triple (i, j, k) or None."""
        d = self.dim
        sv = self.structure_vector
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    # [[e_a, e_b], e_c] = sum_p c_ab^p [e_p, e_c], summed cyclically
                    total = [Fraction(0)] * d
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for p, x in enumerate(sv(a, b)):
                            if x != 0:
                                total = [t + x * y for t, y in zip(total, sv(p, c))]
                    if any(v != 0 for v in total):
                        return (i, j, k)
        return None

    def center(self, mode: Mode = EXACT):
        """Basis of {x : [x, g] = 0}."""
        rows = []
        for j in range(self.dim):
            for k in range(self.dim):
                rows.append([self.structure_vector(i, j)[k] for i in range(self.dim)])
        return nullspace(rows, mode)

    def derived_basis(self, mode: Mode = EXACT):
        return basis_union([], self._c.values(), mode)

    def lie_poisson_field(self) -> PoissonTensorField:
        """Linear Poisson field P^{ij}(x) = sum_k c_{ij}^k x_k (real algebras)."""
        if self.field != REAL:
            raise PreconditionError("Lie-Poisson fields are built for real algebras")
        f = PoissonTensorField(self.dim, self.labels)
        for (i, j), vec in self._c.items():
            poly = Poly.zero(self.dim)
            for k, c in enumerate(vec):
                if c != 0:
                    poly = poly + Poly.variable(self.dim, k) * Fraction(c)
            f.set_entry(i, j, poly)
        return f

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        if self.field != other.field:
            raise DimensionMismatchError("direct sum over mixed fields")
        out = LieAlgebra(self.dim + other.dim, self.field,
                         [f"a.{l}" for l in self.labels] + [f"b.{l}" for l in other.labels])
        for (i, j), vec in self._c.items():
            out.set_bracket(i, j, list(vec) + [Fraction(0)] * other.dim)
        for (i, j), vec in other._c.items():
            out.set_bracket(i + self.dim, j + self.dim,
                            [Fraction(0)] * self.dim + list(vec))
        return out

    def to_json_dict(self) -> dict:
        triples = []
        for (i, j), vec in sorted(self._c.items()):
            for k, c in enumerate(vec):
                if c != 0:
                    triples.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                    "c": format_scalar(c)})
        return {"dim": self.dim, "field": self.field, "basis": self.labels,
                "structure": triples}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieAlgebra":
        try:
            dim = parse_int(data["dim"])
            if dim < 1:
                raise InputFormatError(f"'dim' must be positive, not {dim}", position="dim")
            field_name = data.get("field", REAL)
            if field_name not in (REAL, COMPLEX):
                raise InputFormatError("'field' must be 'real' or 'complex'", position="field")
            labels = data.get("basis")
            if labels is not None and not (isinstance(labels, list) and len(labels) == dim
                                           and all(isinstance(label, str) for label in labels)):
                raise InputFormatError(f"'basis' must be a list of {dim} strings",
                                       position="basis")
            alg = cls(dim, field_name, labels)
            acc: dict = {}
            for t in data.get("structure", []):
                i, j, k = (parse_int(t[key]) - 1 for key in "ijk")
                if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim) or i == j:
                    raise InputFormatError(f"bad structure triple {t}", position=t)
                if i > j:
                    i, j = j, i
                    sign = -1
                else:
                    sign = 1
                vec = acc.setdefault((i, j), [Fraction(0)] * dim)
                vec[k] = vec[k] + sign * _parse_scalar(t["c"])
            for (i, j), vec in acc.items():
                alg.set_bracket(i, j, vec)
            return alg
        except (KeyError, ValueError, TypeError) as exc:
            raise InputFormatError(f"malformed Lie algebra file: {exc}") from exc


def _parse_scalar(c):
    if isinstance(c, dict):
        return tidy(QQi(parse_rational(c["re"]), parse_rational(c["im"])))
    return parse_rational(c)


@dataclass
class TwoCocycle:
    matrix: list

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def value(self, x, y):
        return tidy(bilinear(self.matrix, x, y))

    def rank(self, mode: Mode = EXACT) -> int:
        return mat_rank(self.matrix, mode)

    def to_json_dict(self) -> dict:
        pairs = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.matrix[i][j] != 0:
                    pairs.append({"i": i + 1, "j": j + 1,
                                  "c": format_scalar(self.matrix[i][j])})
        return {"dim": self.dim, "cocycle": pairs}

    @classmethod
    def from_json_dict(cls, data: dict, dim: int | None = None) -> "TwoCocycle":
        """The cocycle in ``data``; with ``dim``, that of a dim-dimensional algebra."""
        if not isinstance(data, dict):
            raise InputFormatError("a cocycle file must hold a JSON object", position="cocycle")
        try:
            d = parse_int(data.get("dim", dim))
            if d < 1 or (dim is not None and d != dim):
                raise InputFormatError(f"cocycle dimension {d} must be positive and equal "
                                       "the algebra dimension", position="cocycle")
            M = [[Fraction(0)] * d for _ in range(d)]
            for t in data.get("cocycle", []):
                i, j = parse_int(t["i"]) - 1, parse_int(t["j"]) - 1
                if not (0 <= i < d and 0 <= j < d) or i == j:
                    raise InputFormatError(f"bad cocycle pair {t}", position=t)
                v = _parse_scalar(t["c"])
                M[i][j] = M[i][j] + v
                M[j][i] = M[j][i] - v
            return cls(M)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputFormatError(f"malformed cocycle file: {exc}") from exc


def argument_shift_cocycle(algebra: LieAlgebra, a) -> TwoCocycle:
    """A_a(xi, eta) = <a, [xi, eta]> for a covector a on the algebra."""
    d = algebra.dim
    M = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = sum(ak * ck for ak, ck in zip(a, algebra.structure_vector(i, j)))
            M[i][j] = tidy(v)
            M[j][i] = -M[i][j]
    return TwoCocycle(M)


@dataclass
class LinearPencil:
    algebra: LieAlgebra
    cocycle: TwoCocycle


def is_cocycle(algebra: LieAlgebra, form: TwoCocycle, mode: Mode = EXACT) -> bool:
    """Exact verification of A([xi,eta],zeta) + A([eta,zeta],xi) + A([zeta,xi],eta) = 0."""
    d = algebra.dim
    basis = identity(d)
    scale = max((abs(complex(v)) for row in form.matrix for v in row), default=1.0)
    sv = algebra.structure_vector
    for i in range(d):
        for j in range(i + 1, d):
            bij = sv(i, j)
            for k in range(j + 1, d):
                total = (form.value(bij, basis[k])
                         + form.value(sv(j, k), basis[i])
                         + form.value(sv(k, i), basis[j]))
                if not mode.zero(total, scale):
                    return False
    return True


@dataclass
class CocycleKernel:
    """Ker A as a subalgebra: its basis, the matrix of ad_x on the algebra for
    each basis vector x, and whether it is Abelian."""

    basis: list
    ad: list
    abelian: bool


def matrix_is_semisimple(M, mode: Mode = EXACT) -> bool:
    """Diagonalizable over C: the eigen-split ``exactlin.eigenspaces`` succeeds."""
    return eigenspaces(M, mode) is not None


def kernel_of_cocycle(lp: LinearPencil, mode: Mode = EXACT) -> CocycleKernel:
    """Ker A as a subalgebra, with its ad matrices and an abelian flag."""
    basis = nullspace(lp.cocycle.matrix, mode)
    abelian = all(mode.zero(v) for i, x in enumerate(basis) for y in basis[i + 1:]
                  for v in lp.algebra.bracket(x, y))
    ad = [lp.algebra.ad_matrix(x) for x in basis]
    return CocycleKernel(basis=basis, ad=ad, abelian=abelian)


def is_regular_cocycle(lp: LinearPencil, sampler: SamplingPolicy,
                       mode: Mode = EXACT) -> bool:
    """The pencil <x, [xi, eta]> + lambda A(xi, eta) has the rank of A: its
    rank at 2 dim + 3 sampled points x, each by ``pencil.pencil_rank_corank``,
    never exceeds rank A."""
    d = lp.algebra.dim
    target = lp.cocycle.rank(mode)
    for _ in range(2 * d + 3):
        if lp.algebra.field == COMPLEX:
            x = [tidy(QQi(sampler.small_rational(), sampler.small_rational()))
                 for _ in range(d)]
        else:
            x = sampler.rational_point(d)
        shift = argument_shift_cocycle(lp.algebra, x).matrix
        rank, _ = pencil_rank_corank(constant_pencil(shift, lp.cocycle.matrix), sampler, mode)
        if rank > target:
            return False
    return True
