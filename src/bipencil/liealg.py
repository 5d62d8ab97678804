"""Finite-dimensional Lie algebras with 2-cocycles (linear pencils).

A linear pencil pairs a Lie algebra (structure constants over the reals or
the complex numbers, exact in Q or a quadratic field) with a skew 2-cocycle;
its pencil of forms on the dual is <x, [xi, eta]> + lambda A(xi, eta).
Semisimplicity of ad is decided by the eigen-split that yields the root
spaces, ``exactlin.eigenspaces``, and the regularity of a cocycle by the
pencil rank of ``pencil.pencil_rank_corank`` at the first points of
``pencil.point_walk``.

Exact data are carrier ints over one denominator (``exactlin.clear_matrix``):
ints over Q, (x, y) int pairs over Q(sqrt d).  An exact algebra holds its
structure constants so, beside their scalar view ``structure_vector``, and
``bracket``, ``ad_matrix``, ``center`` and ``is_cocycle`` compute on them; a
value becomes a Fraction or QQi only where it leaves, and Ker A's ad
operators leave as rows too (``CocycleKernel.ad_rows``).  Beside ``_table``,
the exact rows, an algebra holds its structure constants for float mode as
one complex (d, d, d) array, ``_array``, made once from them and dropped,
as ``_table`` is, by ``set_bracket``.  Float ``bracket``, ``ad_matrix``,
``center`` and ``is_cocycle`` contract it instead of looping over the
brackets; ``ad_matrix`` adds its terms in the order, and with the complex
product, of a sum of Python complex terms, so that its values, and the
roots read off them, keep their bits.  A cocycle's rank and its kernel
Ker A, in pivot-normalized echelon form, are read off its one elimination,
and in float mode off its one SVD.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InputFormatError, PreconditionError
from .exactlin import (Elimination, carrier, clear_matrix, eigenspaces, eliminate, join, lift,
                       nullspace, nullspace_float, scalar_matrix, svd, svd_rank, to_numpy,
                       transpose)
from .poly import Poly
from .pencil import pencil_rank_corank, point_walk
from .scalars import (EXACT, Mode, QQi, format_scalar, is_exact_scalar, parse_int,
                      parse_rational, tidy)
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
        self.__dict__.pop("_table", None)
        self.__dict__.pop("_array", None)

    @cached_property
    def _table(self):
        """(K, {(i, j): carrier row}, den): the exact structure constants as the
        rows of ``exactlin.clear_matrix``, over one denominator; None when
        one is a float."""
        if all(is_exact_scalar(x) for vec in self._c.values() for x in vec):
            K, rows, den = clear_matrix(list(self._c.values()))
            return K, dict(zip(self._c, rows)), den

    @cached_property
    def _array(self):
        """The structure constants as one complex (d, d, d) array, C[i, j, k] =
        c_ij^k = -C[j, i, k]: what float mode contracts."""
        d = self.dim
        C = np.zeros((d, d, d), dtype=complex)
        if self._c:
            i, j = map(list, zip(*self._c))
            C[i, j] = to_numpy(list(self._c.values()))
            C[j, i] = -C[i, j]
        return C

    def structure_vector(self, i: int, j: int):
        if i == j:
            return [Fraction(0)] * self.dim
        if i < j:
            return list(self._c.get((i, j), [Fraction(0)] * self.dim))
        return [-v for v in self._c.get((j, i), [Fraction(0)] * self.dim)]

    def _ad_rows(self, x):
        """(K, rows, s): s ad_x as carrier rows over one denominator s > 0, for
        an exact x and exact structure constants: column j is sum_i x_i c_ij.
        K is the carrier of the field of the entries, Z where they are all
        rational, as ``clear_matrix`` would pick it."""
        KT, T, den = self._table
        KX, (X,), s = clear_matrix([x])
        K = join(KT, KX)
        T, X = dict(zip(T, lift(K, T.values()))), lift(K, [X])[0]
        cols = [[K.zero] * self.dim for _ in range(self.dim)]
        for (i, j), t in T.items():
            for a, b, c in ((i, j, X[i]), (j, i, K.scale(X[j], -1))):
                if c != K.zero:
                    cols[b] = [K.add(o, K.mul(c, v)) for o, v in zip(cols[b], t)]
        if K is not carrier(0) and not any(y for col in cols for _, y in col):
            K, cols = carrier(0), [[a for a, _ in col] for col in cols]
        return K, transpose(cols), s * den

    def _exact(self, *vectors) -> bool:
        """The structure constants and every entry of ``vectors`` are exact."""
        return bool(self._table) and all(is_exact_scalar(x) for v in vectors for x in v)

    def _ad_array(self, x):
        """ad_x transposed, in floats: [j, k] = sum_i x_i c_ij^k, each term
        CPython's complex product made on the real and imaginary parts, and
        the terms added in order of i from 0, so that a value keeps the bits
        of the sum of Python complex terms."""
        X, C = to_numpy(x)[:, None, None], self._array
        out = np.empty(C.shape[1:], dtype=complex)
        out.real = np.add.accumulate(X.real * C.real - X.imag * C.imag)[-1] + 0.0
        out.imag = np.add.accumulate(X.real * C.imag + X.imag * C.real)[-1] + 0.0
        return out

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y: ad_x y on carrier ints where x, y
        and the structure constants are exact, its values then made scalars;
        else y contracted with ``_ad_array``."""
        if self._exact(x, y):
            K, A, s = self._ad_rows(x)
            KY, (Y,), t = clear_matrix([y])
            K = join(K, KY)
            Y = lift(K, [Y])[0]
            return [K.quotient(K.dot(row, Y), K.lift(s * t)) for row in lift(K, A)]
        return (to_numpy(y) @ self._ad_array(x)).tolist()

    def ad_matrix(self, x):
        """Matrix of ad_x = [x, .] on the basis: its columns are the
        brackets [x, e_j]; exact, the scalars of ``_ad_rows``, in floats the
        transpose of ``_ad_array``."""
        if self._exact(x):
            return scalar_matrix(*self._ad_rows(x))
        return self._ad_array(x).T.tolist()

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
        """Basis of {x : [x, g] = 0}: the kernel of the rows (j, k) of
        c_ij^k, exact on the structure constants' carrier rows, in float mode
        on ``_array``."""
        d = self.dim
        if mode.is_exact and self._table:
            K, T, _ = self._table
            rows = [[K.zero] * d for _ in range(d * d)]
            for (i, j), t in T.items():
                for k, x in enumerate(t):
                    rows[j * d + k][i], rows[i * d + k][j] = x, K.scale(x, -1)
            return Elimination(rows, K).kernel
        return nullspace(self._array.transpose(1, 2, 0).reshape(d * d, d), mode)

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
    """A skew form on the algebra; its rank and kernel are read off one
    elimination, made on first use, or in float mode off one SVD."""

    matrix: list

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def elimination(self):
        return eliminate(self.matrix)

    @cached_property
    def svd(self):
        return svd(self.matrix)

    def rank(self, mode: Mode = EXACT) -> int:
        return self.elimination.rank if mode.is_exact else svd_rank(self.svd, mode.tol)

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
    """Exact verification of A([xi,eta],zeta) + A([eta,zeta],xi) + A([zeta,xi],eta) = 0,
    on carrier ints over one denominator in exact mode.  Float mode contracts
    the structure array with A once, V[i, j, k] = A([e_i, e_j], e_k), sums it
    cyclically, and asks ``Mode.zero`` of each triple i < j < k at the scale
    max |A|."""
    d = algebra.dim
    if mode.is_exact and algebra._table:
        K, T, _ = algebra._table
        KA, A, _ = clear_matrix(form.matrix)
        K = join(K, KA)
        T, cols = dict(zip(T, lift(K, T.values()))), transpose(lift(K, A))

        def value(i, j, k):
            """A([e_i, e_j], e_k) times the denominators, i < j."""
            return K.dot(T[i, j], cols[k]) if (i, j) in T else K.zero

        return all(K.add(value(i, j, k), value(j, k, i)) == value(i, k, j)
                   for i in range(d) for j in range(i + 1, d) for k in range(j + 1, d))
    A = to_numpy(form.matrix).reshape(d, d)
    V = algebra._array @ A
    total = V + V.transpose(1, 2, 0) + V.transpose(2, 0, 1)
    i, j, k = np.indices(total.shape)
    scale = float(np.abs(A).max(initial=0.0))
    return bool((np.abs(total[(i < j) & (j < k)]) <= mode.tol * max(scale, 1.0)).all())


@dataclass
class CocycleKernel:
    """Ker A as a subalgebra: its basis, the matrix of ad_x on the algebra for
    each basis vector x, and whether it is Abelian.  Exact, ``ad_rows`` holds
    each ad_x beside it as the carrier rows (K, rows, s) of s ad_x over one
    denominator s > 0, which the root decomposition splits as they are."""

    basis: list
    ad: list
    abelian: bool
    ad_rows: list | None = None


def matrix_is_semisimple(M, mode: Mode = EXACT) -> bool:
    """Diagonalizable over C: the eigen-split ``exactlin.eigenspaces`` succeeds."""
    return eigenspaces(M, mode) is not None


def kernel_of_cocycle(lp: LinearPencil, mode: Mode = EXACT) -> CocycleKernel:
    """Ker A as a subalgebra, with its ad matrices and an abelian flag; exact,
    Ker A is the pivot-normalized kernel of the cocycle's one elimination,
    and each ad matrix is made from its carrier rows (``ad_rows``); in float
    mode the flag is read off the ad matrices, each made once."""
    g = lp.algebra
    basis = ([list(v) for v in lp.cocycle.elimination.kernel] if mode.is_exact
             else nullspace_float(lp.cocycle.svd, mode.tol))
    if mode.is_exact and g._table:
        abelian = all(mode.zero(v) for i, x in enumerate(basis) for y in basis[i + 1:]
                      for v in g.bracket(x, y))
        rows = [g._ad_rows(x) for x in basis]
        return CocycleKernel(basis, [scalar_matrix(*r) for r in rows], abelian, rows)
    ad = [g.ad_matrix(x) for x in basis]
    abelian = all(mode.zero(v) for i, a in enumerate(ad) for y in basis[i + 1:]
                  for v in to_numpy(a) @ to_numpy(y))
    return CocycleKernel(basis, ad, abelian)


def is_regular_cocycle(lp: LinearPencil, mode: Mode = EXACT) -> bool:
    """The pencil <x, [xi, eta]> + lambda A(xi, eta) has the rank of A: its
    rank at the first 2 dim + 3 points x of ``pencil.point_walk``, each by
    ``pencil.pencil_rank_corank``, never exceeds rank A.  Over C a point
    takes its real parts from the first dim coordinates of one point of
    ``point_walk(2 dim)`` and its imaginary parts from the last dim."""
    d = lp.algebra.dim
    target = lp.cocycle.rank(mode)
    complex_field = lp.algebra.field == COMPLEX
    for v in itertools.islice(point_walk(2 * d if complex_field else d), 2 * d + 3):
        x = [QQi(re, im) for re, im in zip(v[:d], v[d:])] if complex_field else v
        shift = argument_shift_cocycle(lp.algebra, x).matrix
        rank, _ = pencil_rank_corank(constant_pencil(shift, lp.cocycle.matrix), mode)
        if rank > target:
            return False
    return True
