"""Dense linear algebra over exact scalars, and over floats in float mode.

Rank decisions are the load-bearing primitive of the whole pipeline.  The
exact kernel clears each row of denominators with one integer lcm, divides it
by its content (``primitive_row``) and then eliminates fraction-free on Python
ints, on one of two carriers by the kind of input: Z for real rational
matrices, Z[sqrt d] ((x, y) int pairs, x + y sqrt d) for matrices over a
quadratic field Q(sqrt d), the Gaussian rationals at d = -1.  A matrix is
eliminated forward once, as rows in its carrier's form (``Elimination``;
``eliminate`` clears any exact matrix into them): over Z each updated row is
divided by its content, which makes it the primitive row on the line of the
Bareiss (1968) row, and over Z[sqrt d] by the previous pivot, as Bareiss
does.  The rank is the number of pivots.  The kernel is back-substituted
against the forward rows once, when first asked for: one line per free
column, from the last pivot up, on the carrier's ints
(``Elimination.kernel_rows``), the same algorithm over Z and Z[sqrt d].  It
becomes Fraction / QQi vectors only at the end, each line divided by its
entry at its free column (``Elimination.kernel``).  ``rref`` reads the
reduced rows off those lines: there is one back-substitution.  Every
primitive decides exactly in exact mode, and in floats at ``Mode.tol`` in
float mode, by the one rule of ``Mode.zero``: a float is zero when |x| <=
tol * max(scale, 1), so the float rank and kernel cut singular values at
tol * max(sigma_max, 1), both read off one ``SVD`` where the caller keeps
it.
Exact mode holds no float: ``eliminate`` names the one field of the entries
(``scalars.quadratic_field``), and refuses a matrix with a float entry, or
with entries in no one field, by PreconditionError.  A nonzero scale of a row changes no rank, kernel or
reduced row echelon form, so a caller may pass such a multiple of its
matrix, an integer one say.  Exact data may also be held as the carrier
rows themselves, over one denominator (``clear_matrix``): the carriers add,
multiply and take dot products of them.  ``read_off`` is the one read-off
of coordinates in a span whose basis rows each have a unit column, as an
echelon kernel basis has: on carrier rows, off those columns, each vector
checked against the whole basis.  ``coords_in_span`` resolves any number of
vectors in a span by it, the basis and the vectors cleared once, and
otherwise by one reduced row echelon form of the basis beside them all (one
least-squares solve of them all for float input); ``restrict`` reads an
operator's matrix on an invariant span by it, off integer images; and
``solve`` reads B^-1 C off one reduced form of [B | C].  A ``Span`` grows
by greedy choice and keeps the forward echelon of its vectors, so that each
new vector is reduced once against it.  ``char_poly_rows`` is
Faddeev-LeVerrier on carrier rows, and ``eigen_split`` eliminates each
eigenspace in them and hands its lines on as ``Elimination.kernel_rows``.
``poly_roots_hybrid`` lists the roots of an exact polynomial as (value,
multiplicity) pairs, each value exact (Fraction or QQi), found by
``exact_roots``, and refuses a polynomial with a root it does not find;
every multiplicity is exact, read
off Yun's squarefree decomposition (``squarefree_decomposition``), on ints
over Q, whose gcds run on the same carriers Z and Z[sqrt d], as primitive
pseudo-remainder sequences (``poly_gcd_exact``); over Q one gcd with the
derivative mod a prime first shows most squarefree polynomials so, and they
take no gcd over Z.  The exact roots of each
squarefree factor are found with no float: the Gaussian-rational ones
(``gaussian_rational_roots``) of a quadratic over Q by its discriminant,
else mod a prime, on ints (by gcds with x^((p - 1) / 2) and equal-degree
splitting), and lifted p-adically, then both roots of a quadratic
cofactor over Q, in the field of its discriminant, and the root of a linear
factor over any Q(sqrt d); any other cofactor is refused.  The primes p = 1
(mod 4) above 10^4 that the squarefree test and the roots mod p take are
found once per process (``_residue_primes``).  ``eigenvalues``
gives the same list for a matrix in exact mode, and numpy's in float mode,
and ``eigenspaces``, the one eigen-split (``eigen_split`` in exact mode),
also decides diagonalizability over C.
Matrices are lists of lists of Fraction / QQi / int entries, or in float
mode floats; vectors are lists.  numpy is bound here once, as ``np``, and
loaded on its first attribute access: float mode loads it at its first
call, and an exact run never imports it.  The other modules that call numpy
read ``np`` from here.  A float decision converts each exact value
once where it meets a float (``as_float``, ``to_numpy``), to the correctly
rounded float(x) that Fraction-with-float arithmetic starts from: float
results keep their bits.
"""

from __future__ import annotations

import bisect
import copy
import functools
import importlib.util
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .scalars import (EXACT, Mode, QQi, field_coords, field_name, no_common_field,
                      quadratic_field, tidy)


def _lazy_import(name: str):
    """The module ``name``, loaded on its first attribute access
    (``importlib.util.LazyLoader``); one already imported is reused."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the one numpy of the package: float mode loads it at its first call, and an
# exact run never does
np = _lazy_import("numpy")

# ---------------------------------------------------------------------------
# basic matrix utilities
# ---------------------------------------------------------------------------


def shape(M):
    return len(M), len(M[0]) if len(M) else 0


def identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(row) for row in zip(*M)] if M else []


def shift(M, c):
    """M - c I."""
    return [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]


def mat_mul(A, B, K=None):
    """A B, or over the carrier K on its rows."""
    n, k = shape(A)
    k2, m = shape(B)
    if k != k2:
        raise ValueError("matrix shape mismatch")
    Bt = transpose(B)
    if K is not None:
        return [[K.dot(row, col) for col in Bt] for row in A]
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def as_float(x):
    """An int or Fraction as the correctly rounded float(x); anything else as it is."""
    return x.numerator / x.denominator if type(x) in (Fraction, int) else x


def to_numpy(M) -> np.ndarray:
    """M as a complex ndarray, an ndarray as it is; numpy gives a Fraction or
    an int the correctly rounded bits of ``as_float``."""
    return M if isinstance(M, np.ndarray) else np.array(M, dtype=complex)


# ---------------------------------------------------------------------------
# the exact kernel: fraction-free elimination over Z and Z[sqrt d]
# ---------------------------------------------------------------------------


def _cleared(row):
    """The real rational row times the lcm of its denominators: ints."""
    ratios = [(x.re if isinstance(x, QQi) else x).as_integer_ratio() for x in row]
    lcm = math.lcm(*{d for _, d in ratios})
    return [a * (lcm // d) for a, d in ratios]


def primitive_row(row):
    """The real rational row times the lcm of its denominators, divided by the
    gcd of the result: the primitive integer row of the same direction, a new
    list.  A row of ints is only divided: ``math.gcd`` reads its content, and
    refuses any other entry, which sends the row to ``_cleared``."""
    try:
        content = math.gcd(*row)
    except TypeError:
        row = _cleared(row)
        content = math.gcd(*row)
    return [a // content for a in row] if content > 1 else list(row)


class _Z:
    """Carrier Z, for real rational matrices: entries are ints."""

    zero, one, d = 0, 1, 0
    keeps_zero_rows = True
    clear = primitive = staticmethod(primitive_row)

    @staticmethod
    def combine(p, f, prev, row, prow):
        """p' * row - f' * prow over its content, with p' and f' = p and f over
        gcd(p, f), entrywise; a row with f = 0 as it is.  That is the primitive
        row on the line of Bareiss's (p * row - f * prow) / prev, which is an
        integer multiple of it: no entry is larger than Bareiss's, and
        ``prev`` is not needed."""
        if not f:
            return row
        g = math.gcd(p, f)
        if g > 1:
            p, f = p // g, f // g
        out = [p * a - f * b for a, b in zip(row, prow)]
        content = math.gcd(*out)
        return [a // content for a in out] if content > 1 else out

    @staticmethod
    def quotient(a, d):
        return Fraction(a, d)

    # the ring operations of the carrier rows, as _ZD has them
    add, mul, scale, exact_div = map(staticmethod, (
        operator.add, operator.mul, operator.mul, operator.floordiv))
    divided, lift = staticmethod(primitive_row), staticmethod(lambda x: x)
    dot = staticmethod(lambda u, v: sum(map(operator.mul, u, v)))
    cofactor = staticmethod(lambda a: (1, a))
    coords = staticmethod(lambda a: (a,))


class _ZD:
    """Carrier Z[sqrt d], for matrices over Q(sqrt d): entries are (x, y) int
    pairs, x + y sqrt d.  Every minor of such entries lies in Z[sqrt d], so a
    Bareiss division by one is exact: the product with its conjugate is
    divided by its norm, an int."""

    zero, one = (0, 0), (1, 0)
    keeps_zero_rows = False

    def __init__(self, d: int):
        self.d = d

    def clear(self, row):
        """The row times the lcm of the denominators of both coordinates of its entries."""
        ratios = [(a.as_integer_ratio(), b.as_integer_ratio())
                  for a, b in (field_coords(x, self.d) for x in row)]
        lcm = math.lcm(*{d for pair in ratios for _, d in pair})
        return [(a * (lcm // d), b * (lcm // e)) for (a, d), (b, e) in ratios]

    def primitive(self, row):
        """The nonzero row times the conjugate of its first entry, over the gcd
        of all coordinates.  A pseudo-division by a row whose first entry is an
        integer multiplies by integers only, which that gcd removes; a
        multiplier in Z[sqrt d] would stay, and compound."""
        lr, li = row[0]
        dli = self.d * li
        row = [(ar * lr - ai * dli, ai * lr - ar * li) for ar, ai in row]
        content = math.gcd(*(x for pair in row for x in pair))
        return [(a // content, b // content) for a, b in row]

    def combine(self, p, f, prev, row, prow):
        """(p * row - f * prow) / prev, entrywise: the product with conj(prev)
        is divided exactly by the norm N(prev) = qr^2 - d qi^2."""
        (pr, pi), (fr, fi), (qr, qi) = p, f, prev
        d = self.d
        dpi, dfi, dqi = d * pi, d * fi, d * qi
        n = qr * qr - dqi * qi
        out = []
        for (ar, ai), (br, bi) in zip(row, prow):
            cr = pr * ar + dpi * ai - fr * br - dfi * bi
            ci = pr * ai + pi * ar - fr * bi - fi * br
            out.append(((cr * qr - ci * dqi) // n, (ci * qr - cr * qi) // n))
        return out

    def quotient(self, a, den):
        (ar, ai), (dr, di) = a, den
        d = self.d
        n = dr * dr - d * di * di
        return tidy(QQi(Fraction(ar * dr - d * ai * di, n), Fraction(ai * dr - ar * di, n), d))

    # ring operations on (x, y) pairs: a cofactor of a is (c, n) with a c = n
    # a nonzero int, ``divided`` takes out the gcd of all coordinates, in a
    # new row as over Z, ``coords`` are the ints of one entry, and ``lift``
    # makes an int a pair
    add = staticmethod(lambda a, b: (a[0] + b[0], a[1] + b[1]))
    coords = staticmethod(lambda a: a)
    scale = staticmethod(lambda a, k: (a[0] * k, a[1] * k))
    exact_div = staticmethod(lambda a, k: (a[0] // k, a[1] // k))
    lift = staticmethod(lambda x: (x, 0) if type(x) is int else x)

    def mul(self, a, b):
        return a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def dot(self, u, v):
        return (sum(a * c for (a, _), (c, _) in zip(u, v))
                + self.d * sum(b * e for (_, b), (_, e) in zip(u, v)),
                sum(a * e + b * c for (a, b), (c, e) in zip(u, v)))

    def cofactor(self, a):
        return (a[0], -a[1]), a[0] * a[0] - self.d * a[1] * a[1]

    @staticmethod
    def divided(row):
        g = math.gcd(*(x for pair in row for x in pair))
        return [(a // g, b // g) for a, b in row] if g > 1 else list(row)


def carrier(d: int):
    """_Z for the field Q (d = 0), else _ZD for Q(sqrt d)."""
    return _Z if d == 0 else _ZD(d)


def join(K, L):
    """The carrier of both K and L; PreconditionError for two Z[sqrt d]."""
    if K is _Z:
        return L
    if L is not _Z and L.d != K.d:
        raise no_common_field(K.d, L.d)
    return K


def lift(K, rows):
    """Carrier rows over Z or K as rows over K."""
    return rows if K is _Z else [[K.lift(x) for x in row] for row in rows]


def clear_matrix(M):
    """(K, rows, D): an exact M as the carrier rows of D M over K, the carrier
    of its field (``quadratic_field``), D > 0 the lcm of the denominators of
    all coordinates: exact data as ints over one denominator."""
    d = quadratic_field(x for row in M for x in row)
    ratios = [[[c.as_integer_ratio() for c in field_coords(x, d)] for x in row] for row in M]
    D = math.lcm(*(q for row in ratios for x in row for _, q in x))
    if d:
        return _ZD(d), [[(a * (D // q), b * (D // r)) for (a, q), (b, r) in row]
                        for row in ratios], D
    return _Z, [[a * (D // q) for (a, q), _ in row] for row in ratios], D


def scalar_matrix(K, M, D=1):
    """M / D for carrier rows M over K and an int D > 0, as Fraction / QQi
    entries: ``clear_matrix`` undone."""
    D = K.lift(D)
    return [[K.quotient(x, D) for x in row] for row in M]


def _bareiss(K, A):
    """The pivot columns of the rows A over the carrier K, which are
    forward-eliminated in place.

    At a pivot p in column ``col`` (previous pivot ``prev``, 1 at the start)
    each row below the pivot row becomes K.combine(p, row[col], prev, row,
    pivot_row).  Over Z[sqrt d] that is (p * row - row[col] * pivot_row) /
    prev, the forward elimination of Bareiss (1968), whose entries are minors
    of A, so the division is exact, and a row with a zero in ``col`` is
    scaled by p / prev.  Over Z it is the primitive row on the same line,
    and a row with a zero in ``col`` is kept as it is (``keeps_zero_rows``),
    so it is skipped.
    """
    combine, zero, skip = K.combine, K.zero, K.keeps_zero_rows
    n, m = shape(A)
    pivots = []
    prev = K.one
    for col in range(m):
        k = len(pivots)
        piv = next((r for r in range(k, n) if A[r][col] != zero), None)
        if piv is None:
            continue
        A[k], A[piv] = A[piv], A[k]
        p = A[k][col]
        # rows below the pivot row are zero left of col
        tail = A[k][col:]
        for r in range(k + 1, n):
            row = A[r]
            if row[col] != zero or not skip:
                row[col:] = combine(p, row[col], prev, row[col:], tail)
        prev = p
        pivots.append(col)
        if len(pivots) == n:
            break
    return pivots


class Elimination:
    """The forward elimination over the carrier K of ``rows`` in K's form
    (primitive ints over Z, (x, y) int pairs over Z[sqrt d]), in place by
    ``_bareiss``, and so its rank, at once.  The kernel is back-substituted
    against the forward pivot rows when first asked for, and kept, so it is
    computed once per elimination; ``rref`` reads its reduced rows off it."""

    def __init__(self, rows, K):
        self.K, self.rows, self.width = K, rows, len(rows[0]) if rows else 0
        self.pivots = _bareiss(K, rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @functools.cached_property
    def kernel(self):
        """Right-kernel basis in pivot-normalized echelon form (deterministic):
        each line of ``kernel_rows`` divided by its entry at its own free
        column, which makes that entry 1."""
        K = self.K
        rows, free = self.kernel_rows
        return [[K.quotient(x, v[fc]) for x in v] for v, fc in zip(rows, free)]

    @property
    def kernel_lines(self):
        """Positive multiples of the ``kernel`` vectors: over Z the primitive
        integer rows of ``kernel_rows``, no Fraction made, else ``kernel``."""
        return self.kernel_rows[0] if self.K is _Z else self.kernel

    @functools.cached_property
    def kernel_rows(self):
        """(rows, free): the lines of ``kernel`` as carrier rows over the gcd of
        their coordinates, row t the one nonzero at column f = free[t], with a
        positive int there.  Each is back-substituted from v = e_f against the
        forward pivot rows left of f, from the last up: at a pivot p in column
        pc, with t = row . v and p c = n an int (``K.cofactor``), v is scaled
        by |n| / g and v[pc] set to -sign(n) t c / g, g the gcd of |n| and the
        coordinates of t c, so v stays on the carrier's ints."""
        K, rows, pivots = self.K, self.rows, self.pivots
        cof = [K.cofactor(row[pc]) for row, pc in zip(rows, pivots)]
        free = [c for c in range(self.width) if c not in pivots]
        lines = []
        for f in free:
            v = [K.zero] * (f + 1)
            v[f] = K.one
            for k in reversed(range(bisect.bisect(pivots, f))):
                pc = pivots[k]
                t = K.dot(rows[k][pc + 1:f + 1], v[pc + 1:])
                if t == K.zero:
                    continue
                c, n = cof[k]
                tc = K.mul(t, c)
                g = math.gcd(n, *K.coords(tc))
                if g != abs(n):
                    v[pc + 1:] = map(K.scale, v[pc + 1:], itertools.repeat(abs(n) // g))
                v[pc] = K.exact_div(tc, -g if n > 0 else g)
            v += [K.zero] * (self.width - f - 1)
            lines.append(K.divided(v))
        return lines, free


def eliminate(M, field: int | None = None) -> Elimination:
    """The forward elimination of an exact matrix over Z, or over Z[sqrt d]
    when an entry is irrational in Q(sqrt d): the one place that clears an
    exact matrix into its carrier's rows, each by ``K.clear``.  ``field`` is
    that d, 0 for Q, when the caller knows it, else read off the entries
    once by ``quadratic_field``, which refuses a float entry, or entries in
    no one field, with PreconditionError."""
    if field is None:
        field = quadratic_field(x for row in M for x in row)
    K = carrier(field)
    return Elimination([K.clear(row) for row in M], K)


def mat_rank_exact(M) -> int:
    """Rank as the number of pivots of ``eliminate(M)``: on Python ints, the
    rows cleared of denominators with one lcm each, over Z for real rational
    matrices and over Z[sqrt d], on (x, y) int pairs, for matrices over
    Q(sqrt d)."""
    return eliminate(M).rank


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SVD:
    """A float matrix kept with its one numpy SVD: its singular values,
    descending, and the rows of vh, its full right singular vectors.
    ``svd_rank`` and ``nullspace_float`` read one in place of a matrix, so
    that a matrix kept so (``tensorfield.PencilAtPoint.svd_at``) is
    decomposed once for its rank and its kernel."""

    matrix: np.ndarray
    sv: np.ndarray
    vh: np.ndarray


def svd(M) -> SVD:
    """The ``SVD`` of the float matrix M; of an empty one, no singular value
    and the identity on its columns."""
    A = to_numpy(M)
    if A.size == 0:
        return SVD(A, np.zeros(0), np.eye(A.shape[1] if A.ndim == 2 else 0))
    _, sv, vh = np.linalg.svd(A)
    return SVD(A, sv, vh)


def svd_rank(M, eps: float, warnings=None, what: str = "") -> int:
    """The singular values of M, or of its ``SVD``, above eps * max(sigma_max, 1);
    a matrix not kept is decomposed for its singular values alone."""
    if isinstance(M, SVD):
        sv = M.sv
    else:
        A = to_numpy(M)
        sv = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
    if sv.size == 0:
        return 0
    scale = max(sv[0], 1.0)
    rank = int(np.sum(sv > eps * scale))
    if warnings is not None:
        lo = sv[rank] if rank < sv.size else 0.0
        hi = sv[rank - 1] if rank >= 1 else sv[0]
        if rank < sv.size and lo > eps * scale / 10:
            warnings.append(f"borderline rank decision{': ' + what if what else ''} "
                            f"(gap {lo / scale:.3e} within 10x of tolerance)")
        elif rank >= 1 and hi < 10 * eps * scale:
            warnings.append(f"borderline rank decision{': ' + what if what else ''} "
                            f"(kept value {hi / scale:.3e} within 10x of tolerance)")
    return rank


def mat_rank(M, mode: Mode = EXACT, warnings=None, what: str = "") -> int:
    n, m = shape(M)
    if n == 0 or m == 0:
        return 0
    if mode.is_exact:
        return mat_rank_exact(M)
    return svd_rank(M, mode.tol, warnings, what)


# ---------------------------------------------------------------------------
# reduced row echelon / nullspace / solving (exact field arithmetic)
# ---------------------------------------------------------------------------


def rref(M):
    """Reduced row echelon form over Q or Q(sqrt d); returns (R, pivot_cols).

    Read off the kernel lines of ``eliminate(M)`` (``Elimination.kernel_rows``):
    pivot row i is 1 at its pivot column pc and 0 at the other pivot columns,
    and at each free column f it holds -v[pc] / v[f], v the line of f, zero
    at every free column but f and at every pivot column right of it.  The
    entries are Fraction, or QQi for irrational ones.  Rows past the rank
    are zero.
    """
    e = eliminate(M)
    K, pivots = e.K, e.pivots
    zero, one = K.quotient(K.zero, K.one), K.quotient(K.one, K.one)
    R = [[one if c == pc else zero for c in range(e.width)] for pc in pivots]
    for v, f in zip(*e.kernel_rows):
        den = K.scale(v[f], -1)
        for row, pc in zip(R, pivots):
            if pc > f:
                break
            if v[pc] != K.zero:
                row[f] = K.quotient(v[pc], den)
    R += [[Fraction(0)] * e.width for _ in range(len(M) - e.rank)]
    return R, pivots


def nullspace_exact(M):
    """Right-kernel basis over Q or Q(sqrt d) in pivot-normalized echelon form
    (``Elimination.kernel``)."""
    return eliminate(M).kernel


def nullspace_float(M, eps: float, dim: int | None = None):
    """Right singular vectors of M, or of its ``SVD``, of singular value at
    most eps * max(sigma_max, 1), or the last ``dim`` where the kernel's
    dimension is known."""
    s = M if isinstance(M, SVD) else svd(M)
    sv, vh = s.sv, s.vh
    if dim is not None:
        return [list(v.conj()) for v in vh[len(vh) - dim:]]
    cutoff = eps * max(sv[0], 1.0) if sv.size else 0.0
    return [list(vh[i].conj()) for i in range(len(vh)) if i >= len(sv) or sv[i] <= cutoff]


def nullspace(M, mode: Mode = EXACT):
    if mode.is_exact:
        return nullspace_exact(M)
    return nullspace_float(M, mode.tol)


def coords_in_span(basis_vectors, vectors, mode: Mode = EXACT):
    """Coordinates of each of ``vectors`` in span(basis_vectors), or None if
    any of them is outside.

    In exact mode, when each basis vector has a unit column, one where it is
    nonzero and every other basis vector is zero, as the free columns of an
    echelon kernel basis are, the basis and the vectors are cleared once
    (``clear_matrix``) and the coordinates read off those columns by
    ``read_off``, which checks each vector against the whole basis.  Other
    exact input takes one reduced row echelon form of the basis columns
    beside all the vectors: a pivot in a vector's column puts it outside the
    span.  Float mode takes one least-squares solve with all the vectors as
    columns, and gives each vector's coordinates as a row of its solution; a
    vector is outside when its residual exceeds 100 * mode.tol * max(1, max |w|).
    """
    m = len(basis_vectors)
    if not m:
        inside = all(mode.zero(x) for w in vectors for x in w)
        return [[] for _ in vectors] if inside else None
    if mode.is_exact:
        counts = [sum(x != 0 for x in col) for col in zip(*basis_vectors)]
        units = [next((j for j, x in enumerate(u) if x != 0 and counts[j] == 1), None)
                 for u in basis_vectors]
        if None not in units:
            K, rows, _ = clear_matrix(list(basis_vectors) + list(vectors))
            out = read_off(K, rows[:m], units, rows[m:])
            if out is None:
                return None
            R, L = out
            return [[K.quotient(x, K.lift(L)) for x in col] for col in transpose(R)]
        R, pivots = rref(transpose(list(basis_vectors) + list(vectors)))
        if any(c >= m for c in pivots):
            return None
        rows = dict(zip(pivots, R))
        return [[rows[c][m + t] if c in rows else Fraction(0) for c in range(m)]
                for t in range(len(vectors))]
    if not len(vectors):
        return []
    An, B = to_numpy(basis_vectors).T, to_numpy(vectors).T
    X, *_ = np.linalg.lstsq(An, B, rcond=None)
    norms = np.maximum(1.0, np.abs(B).max(axis=0))
    if (np.abs(An @ X - B).max(axis=0) > 100 * mode.tol * norms).any():
        return None
    return list(X.T)


def read_off(K, basis, units, images):
    """(R, L): the coordinates of each of ``images`` in the span of ``basis``
    times the int L > 0, column t those of images[t]; None when an image
    leaves that span.

    ``basis`` and ``images`` are carrier rows over K; basis row t is the one
    nonzero at column units[t], as ``Elimination.kernel_rows`` gives them,
    so each coordinate is read off those columns with no elimination, and
    each image is then checked against the whole basis.
    """
    cof = [K.cofactor(b[u]) for b, u in zip(basis, units)]
    L = math.lcm(*(abs(n) for _, n in cof))
    R = [[K.scale(K.mul(y[u], c), L // n) for y in images] for u, (c, n) in zip(units, cof)]
    cols = transpose(basis)
    for t, y in enumerate(images):
        coeffs = [row[t] for row in R]
        if any(K.scale(x, L) != K.dot(coeffs, col) for x, col in zip(y, cols)):
            return None
    return R, L


def restrict(K, A, basis, units):
    """(R, L): L > 0 times the matrix of the operator A on the invariant span
    of ``basis``, and the int L; None when an image A b leaves that span.
    A and ``basis`` are carrier rows over K, ``basis`` and ``units`` as
    ``read_off`` takes them, which reads the integer images A b."""
    return read_off(K, basis, units, [[K.dot(row, b) for row in A] for b in basis])


def solve(B, C, mode: Mode = EXACT):
    """B^-1 C for a square B: [] when B is empty, None when it is singular.

    Exact mode takes one reduced row echelon form of [B | C]; B is
    invertible when the pivots fill its columns, and the rows then hold
    B^-1 C.  In float mode B is singular when ``svd_rank`` says so at
    mode.tol, and otherwise numpy's inverse of B is multiplied into C.
    """
    n = len(B)
    if not n:
        return []
    if mode.is_exact:
        R, pivots = rref([list(b) + list(c) for b, c in zip(B, C)])
        return [row[n:] for row in R] if pivots[:n] == list(range(n)) else None
    if svd_rank(B, mode.tol) < n:
        return None
    return mat_mul([list(row) for row in np.linalg.inv(to_numpy(B))], C)


class Span:
    """A span grown by greedy choice: ``vectors`` are the kept vectors, each
    independent of those kept before it.

    In exact mode the span also keeps the forward echelon of its vectors:
    one primitive carrier row per kept vector, in the order kept, each zero
    at the pivot columns of the rows before it.  A new vector is cleared
    once (``K.clear``) and reduced, in that order, against the rows whose
    pivot columns it hits, by ``K.combine`` with previous pivot one.  It is
    kept when a nonzero remainder is left, which becomes a row, made
    primitive by ``K.divided``, with its first nonzero column as pivot.
    Over Z[sqrt d] that row is first multiplied by the cofactor of its pivot
    (``K.cofactor``), so that every pivot is an int and a reduction scales a
    vector by ints only.  The carrier is Z until an entry lies in Q(sqrt d);
    the rows are then lifted to Z[sqrt d].  Float mode converts the vectors
    once per extension and checks them prefix by prefix, on rows of one
    array.
    """

    def __init__(self, mode: Mode = EXACT):
        self.mode, self.vectors, self.K, self.rows, self.pivots = mode, [], _Z, [], []

    def copy(self) -> Span:
        """A span of the same vectors that extends apart from this one."""
        out = copy.copy(self)
        out.vectors, out.rows, out.pivots = list(self.vectors), list(self.rows), list(self.pivots)
        return out

    def extend(self, vectors) -> list:
        """Keep each of ``vectors`` that is independent of the span and of
        the vectors kept before it; return the kept ones."""
        vectors = [list(v) for v in vectors]
        if self.mode.is_exact:
            kept = [v for v, row in zip(vectors, self._carrier_rows(vectors)) if self._keep(row)]
        else:
            n = len(self.vectors)
            A, rows = to_numpy(self.vectors + vectors), list(range(n))
            for k in range(n, len(A)):
                if mat_rank(A[rows + [k]], self.mode) == len(rows) + 1:
                    rows.append(k)
            kept = [vectors[k - n] for k in rows[n:]]
        self.vectors += kept
        return kept

    def _carrier_rows(self, vectors):
        """The vectors as carrier rows, the span's rows lifted first to the
        carrier of both."""
        seen = [QQi(0, 1, self.K.d)] if self.K.d else []
        d = quadratic_field(itertools.chain(seen, (x for v in vectors for x in v)))
        if d != self.K.d:
            self.K = carrier(d)
            self.rows = lift(self.K, self.rows)
        return [self.K.clear(v) for v in vectors]

    def _keep(self, v) -> bool:
        """Reduce the carrier row v against the rows; keep a nonzero remainder."""
        K = self.K
        zero, one = K.zero, K.one
        for row, col in zip(self.rows, self.pivots):
            if v[col] != zero:
                v = K.combine(row[col], v[col], one, v, row)
        col = next((j for j, x in enumerate(v) if x != zero), None)
        if col is None:
            return False
        c, _ = K.cofactor(v[col])
        self.rows.append(K.divided([K.mul(x, c) for x in v] if c != one else v))
        self.pivots.append(col)
        return True


# ---------------------------------------------------------------------------
# characteristic polynomials and exact root extraction
# ---------------------------------------------------------------------------


def char_poly(M):
    """Monic characteristic polynomial det(xI - M) of an exact matrix,
    ascending coefficients: ``char_poly_rows`` of its ``clear_matrix``."""
    n, m = shape(M)
    if n != m:
        raise ValueError("characteristic polynomial of non-square matrix")
    return char_poly_rows(*clear_matrix(M))


def char_poly_rows(K, M, D):
    """Monic det(xI - M / D), ascending, of square carrier rows M over K, D > 0.

    Faddeev-LeVerrier recursion on M, whose characteristic polynomial lies in
    Z or Z[sqrt d], so each division by k is exact, on ints or int pairs;
    coefficient n - k is then divided by D^k.
    """
    n = len(M)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = M
    for k in range(1, n + 1):
        c = K.exact_div(K.scale(functools.reduce(K.add, (Mk[i][i] for i in range(n))), -1), k)
        coeffs[n - k] = K.quotient(c, K.lift(D ** k))
        if k < n:
            Mk = mat_mul(M, [[K.add(x, c) if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(Mk)], K)
    return coeffs


def poly_eval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_deriv(coeffs):
    return [c * k for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _poly_degree(coeffs):
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0:
        d -= 1
    return d


def poly_gcd_exact(a, b):
    """Monic gcd over Q or Q(sqrt d); [1] when a and b are both zero.

    Brown's primitive pseudo-remainder sequence (JACM 1971) on the cleared
    coefficients, over the carrier ``eliminate`` would pick (``_gcd_rows``):
    a step of a pseudo-division is the carrier's elimination step with
    previous pivot one, and each remainder is made primitive by the carrier.

    Over Z[sqrt d] the content removed is an integer, so a factor of a
    remainder in Z[sqrt d], such as the conjugate of its leading entry that
    ``_ZD.primitive`` multiplies in, stays.  On f g and f h, f of degree 5 and
    g, h of degree 7, coefficients (both parts over Z[i]) drawn from [-9, 9]
    at 5 seeds, the largest remainder has 36-41 bits over Z and 75-93 over
    Z[i], and the largest row inside a pseudo-division 57-71 against 205-247.
    Dividing that row by its integer content after each step leaves it at
    204-246 bits and takes 0.9 ms against 0.75: the growth is a Gaussian
    factor, not an integer one, so no step removes content.  No benchmark job
    runs a gcd over Z[sqrt d], and the tests run Gaussian ones up to degree
    20, so that is left as it is.
    """
    K = carrier(quadratic_field((*a, *b)))
    g = _gcd_rows(K, K.clear(a[::-1]), K.clear(b[::-1]))
    return [K.quotient(c, g[0]) for c in reversed(g)] if g else [Fraction(1)]


def _gcd_rows(K, a, b):
    """The gcd of two polynomials as descending carrier rows over K, by the
    sequence of ``poly_gcd_exact``: a primitive row, [] when both are zero."""
    def primitive(row):     # its leading zeros dropped
        row = row[next((k for k, c in enumerate(row) if c != K.zero), len(row)):]
        return K.primitive(row) if row else row

    a, b = primitive(a), primitive(b)
    while b:
        while len(a) >= len(b):
            a = K.combine(b[0], a[0], K.one, a, b + [K.zero] * (len(a) - len(b)))[1:]
        a, b = b, primitive(a)
    return a


def _poly_quotient(a, g):
    """a / g for a g that divides a: synthetic division.  A monic g needs no
    division, and the coefficients are ``tidy``; over Z, with g primitive,
    each is divided exactly by g's leading int."""
    q = list(a[:_poly_degree(a) + 1])
    n, lc = len(g) - 1, g[-1]
    for k in range(len(q) - 1, n - 1, -1):
        c = q[k] = q[k] // lc if type(lc) is int else tidy(q[k])
        for i in range(n):
            q[k - n + i] -= c * g[i]
    return q[n:]


def squarefree_decomposition(coeffs):
    """(sf, [(f_i, i)]): the squarefree part sf = coeffs / gcd(coeffs, coeffs'),
    and monic, squarefree, pairwise coprime f_i of degree >= 1 whose f_i^i
    multiply to coeffs up to a scalar, by Yun's algorithm (SYMSAC 1976): from
    b = sf and c = coeffs' / gcd, each step takes d = c - b', f_i = gcd(b, d),
    and b / f_i and d / f_i as the next b and c, until b is a constant.

    Over Q it runs on ints: each gcd is primitive (``_gcd_rows``), each
    quotient exact over Z, b and c one multiple of the field's, and f_i and
    sf are scaled at the end.  Over Q(sqrt d) each gcd is monic.

    Over Q, gcd(f, f') is first taken mod the first prime p of
    ``_residue_primes`` that does not divide the leading coefficient of the
    primitive f.  When it is constant, f is squarefree over Q: a factor g^2
    of f over Z would reduce to a factor of the same degree, squared, mod p.
    Then Yun's answer, (coeffs, [(f monic, 1)]), is returned at once."""
    if _poly_degree(coeffs) == 0:
        return list(coeffs), []
    over_q = not quadratic_field(coeffs)
    f = primitive_row(coeffs[:_poly_degree(coeffs) + 1]) if over_q else coeffs
    df = poly_deriv(f)
    if over_q:
        p = next(p for p, _ in _residue_primes() if f[-1] % p)
        inv = pow(f[-1], -1, p)
        if len(_gcd_mod([x * inv % p for x in f], df, p)) == 1:
            return list(coeffs), [([Fraction(x, f[-1]) for x in f], 1)]
    gcd = (lambda a, b: _gcd_rows(_Z, a[::-1], b[::-1])[::-1]) if over_q else poly_gcd_exact
    g = gcd(f, df)
    b, c = _poly_quotient(f, g), _poly_quotient(df, g)
    sf = (list(coeffs) if len(g) == 1 else b if not over_q
          else [tidy(coeffs[len(f) - 1]) / b[-1] * x for x in b])
    factors = []
    for i in itertools.count(1):
        if _poly_degree(b) == 0:
            return sf, factors
        d = [x - y for x, y in itertools.zip_longest(c, poly_deriv(b), fillvalue=0)]
        h = gcd(b, d)
        if len(h) > 1:
            factors.append(([Fraction(x, h[-1]) for x in h] if over_q else h, i))
        b, c = _poly_quotient(b, h), _poly_quotient(d, h)


def _eval_mod(coeffs, x, q):
    """An ascending integer polynomial at the int x mod q, by Horner."""
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % q
    return out


# Polynomials over F_p, p an odd prime, as ascending lists of ints, which
# may end in zeros.


def _divmod_mod(a, f, p):
    """(quotient, remainder) of a by the monic f over F_p, the remainder as
    len(f) - 1 coefficients (fewer when a has fewer)."""
    a, n = list(a), len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] = a[k] % p
        if c:
            for i in range(n):
                a[k - n + i] -= c * f[i]
    return [x % p for x in a[n:]], [x % p for x in a[:n]]


def _mul_mod(a, b, f, p):
    """a b mod the monic f over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _divmod_mod(prod, f, p)[1]


def _pow_mod(a, e, f, p):
    """a^e mod the monic f over F_p, e >= 1, by repeated squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mul_mod(out, out, f, p)
        if bit == "1":
            out = _mul_mod(out, a, f, p)
    return out


def _gcd_mod(a, b, p):
    """The monic gcd over F_p of a monic a and any b, by Euclid."""
    while True:
        while b and not b[-1] % p:
            b = b[:-1]
        if not b:
            return a
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _divmod_mod(a, b, p)[1]


def _split_mod(g, p, a=1):
    """The roots of a monic squarefree g that is a product of linear factors
    over F_p, split by equal degrees: gcd(g, (x + a)^((p - 1) / 2) - 1) holds
    the factors x - r with r + a a nonzero square, for a = 1, 2, ... until
    it is a proper factor (von zur Gathen-Gerhard, Modern Computer Algebra,
    14.3)."""
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    while True:
        h = _pow_mod([a, 1], (p - 1) // 2, g, p)
        h = _gcd_mod(g, [h[0] - 1] + h[1:], p)
        a += 1
        if 1 < len(h) < len(g):
            return _split_mod(h, p, a) + _split_mod(_divmod_mod(g, h, p)[0], p, a)


def _simple_roots_mod(c, p):
    """The roots in F_p of the integer polynomial c, ascending, its leading
    coefficient a unit mod p; None when one of them is a root of c' too.
    With w = x^((p - 1) / 2) mod c, by repeated squaring, they are 0 when
    c(0) = 0, the roots of gcd(c, w - 1), the nonzero squares, and those of
    gcd(c, w + 1), the non-squares, each split by ``_split_mod``."""
    inv = pow(c[-1], -1, p)
    f = [x * inv % p for x in c]
    w = _pow_mod([0, 1], (p - 1) // 2, f, p)
    roots = [0] if not f[0] else []
    for e in (-1, 1):
        roots += _split_mod(_gcd_mod(f, [w[0] + e] + w[1:], p), p)
    derivative = poly_deriv(c)
    return sorted(roots) if all(_eval_mod(derivative, r, p) for r in roots) else None


@functools.cache
def _residue_prime(k: int):
    """The k-th (p, s) of ``_residue_primes``, found by trial division once
    per process."""
    start = _residue_prime(k - 1)[0] + 4 if k else 10 ** 4 + 1
    p = next(p for p in itertools.count(start, 4)
             if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
    return p, next(s for s in (pow(c, (p - 1) // 4, p) for c in itertools.count(2))
                   if s * s % p == p - 1)


def _residue_primes():
    """(p, s) per prime p = 1 (mod 4) above 10^4, in order, s the first
    c^((p - 1) / 4), c = 2, 3, ..., whose square is -1 mod p; each pair is
    found once per process (``_residue_prime``)."""
    return map(_residue_prime, itertools.count())


def _repeated_root():
    return PreconditionError("the polynomial has a repeated root; gaussian_rational_roots "
                             "takes squarefree factors")


def gaussian_rational_roots(f):
    """(roots, cofactor): the roots in Q(i) of a squarefree f over Q or Q(i),
    exact, and f divided by their linear factors, which has none.

    p-adic lifting (Loos, SIAM J. Comput. 1983) over the Gaussian integers.
    With lc the leading coefficient of the cleared f, each root z makes
    w = lc z a Gaussian integer with |w| <= B = |lc| + max |a_k| (Cauchy).
    The first prime p = 1 (mod 4) above 10^4 with p not dividing N(lc), at
    which every root of f mod p is simple, is taken, with i -> s, s^2 = -1,
    mapping Z[i] onto F_p (``_residue_primes``).  The roots mod p are found
    on ints, in their order mod p, which is the order of the list
    (``_simple_roots_mod``: x^((p - 1) / 2) mod f by repeated squaring, gcds
    with it, and equal-degree splitting), and each is checked to be no root
    of f'.  Newton's doubling lifts them, and s with them, to
    q = p^K > 4 B^2 (von zur Gathen-Gerhard, Modern Computer Algebra, 15.4).
    The w with residue t = lc r mod q lie on a coset of the lattice
    x + y s = 0 (mod q), spanned by (q, 0) and (-s, 1): the multiples of a g
    of norm q, its shortest vector.  So t - round(t / g) g is the one w of
    norm below q / 4; w / lc is kept when f vanishes there exactly.

    A linear f gives -c_0 / c_1 directly.  A quadratic over Q, cleared to
    a_0 + a_1 x + a_2 x^2 with D = a_1^2 - 4 a_0 a_2, gives its roots in
    closed form, (-a_1 +- sqrt D) / 2 a_2: rational when D is a square,
    Gaussian when -D is, else none in Q(i).  The first prime p that divides
    neither a_2 nor D is the one the lifting would take (its roots mod p are
    simple), and they are sorted, as the lifting sorts them, by residue mod p.

    A repeated root, simple mod no prime, is refused by PreconditionError:
    D = 0 in the closed form, and in the lifting a nonconstant gcd(f, f'),
    taken once, at the first prime whose roots are not all simple.
    """
    f = f[:_poly_degree(f) + 1]
    if len(f) <= 2:
        return ([tidy(-f[0] / f[1])], f[1:]) if len(f) == 2 else ([], f)
    if len(f) == 3 and not quadratic_field(f):
        a0, a1, a2 = _cleared(f)
        disc = a1 * a1 - 4 * a0 * a2
        if not disc:
            raise _repeated_root()
        r = math.isqrt(abs(disc))
        if r * r != abs(disc):
            return [], f
        p, s = next((p, s) for p, s in _residue_primes() if a2 % p and disc % p)
        re, im = Fraction(-a1, 2 * a2), Fraction(r, 2 * a2)
        roots = [re + im, re - im] if disc > 0 else [QQi(re, im), QQi(re, -im)]
        t = r if disc > 0 else r * s        # sqrt D mod p, with i -> s
        keys = [(e * t - a1) * pow(2 * a2, -1, p) % p for e in (1, -1)]
        return [z for _, z in sorted(zip(keys, roots))], [tidy(f[2])]
    K = _ZD(-1)
    a = K.clear(f)
    lc = a[-1]
    norm_lc = lc[0] ** 2 + lc[1] ** 2
    bound = (math.isqrt(norm_lc) + math.isqrt(max(x * x + y * y for x, y in a)) + 2) ** 2
    checked = False
    for p, s in _residue_primes():
        if norm_lc % p:
            roots = _simple_roots_mod([(x + y * s) % p for x, y in a], p)
            if roots is not None:
                break
            if not checked:
                derivative = [K.scale(x, k) for k, x in enumerate(a)][1:]
                if len(_gcd_rows(K, a[::-1], derivative[::-1])) > 1:
                    raise _repeated_root()
                checked = True
    q = p
    while q <= 4 * bound:
        q *= q
        s = (s - (s * s + 1) * pow(2 * s, -1, q)) % q
        c = [(x + y * s) % q for x, y in a]
        roots = [(r - _eval_mod(c, r, q) * pow(_eval_mod(poly_deriv(c), r, q), -1, q)) % q
                 for r in roots]
    (gr, gi), (br, bi) = (q, 0), (-s, 1)        # Lagrange-Gauss reduction
    while br * br + bi * bi < gr * gr + gi * gi:
        m = (2 * (gr * br + gi * bi) + br * br + bi * bi) // (2 * (br * br + bi * bi))
        (gr, gi), (br, bi) = (br, bi), (gr - m * br, gi - m * bi)
    found = []
    for r in roots:
        t = (lc[0] + lc[1] * s) * r % q
        x, y = (2 * t * gr + q) // (2 * q), (q - 2 * t * gi) // (2 * q)
        w = (t - x * gr + y * gi, -x * gi - y * gr)
        if w[0] ** 2 + w[1] ** 2 <= bound and poly_eval(f, z := K.quotient(w, lc)) == 0:
            found.append(z)
    for z in found:
        f = _poly_quotient(f, [-z, Fraction(1)])
    return found, f


def _sqrt(r: Fraction) -> QQi:
    """sqrt(r) for a rational r that is no square, as b sqrt(d): sqrt(p / q) =
    sqrt(p q) / q, with the squares of 2..99 taken out of d = p q."""
    d, b = r.numerator * r.denominator, Fraction(1, r.denominator)
    for k in range(2, 100):
        while d % (k * k) == 0:
            d, b = d // (k * k), b * k
    return QQi(0, b, d)


def exact_roots(f):
    """(roots, cofactor): the roots of a squarefree f over Q(sqrt d) that are
    found exactly, and f divided by their linear factors.

    An f over Q or Q(i) gives its Gaussian-rational roots by
    ``gaussian_rational_roots`` (in closed form for a quadratic over Q), and
    then a cofactor of degree 2 over Q both its roots, (-c_1 +- sqrt(c_1^2 -
    4 c_0 c_2)) / 2 c_2 in the field of that discriminant, which is no square
    and minus no square.  Over any other Q(sqrt d) only a linear f gives its
    root, -c_0 / c_1.  Any other cofactor is returned as it is.
    """
    f = f[:_poly_degree(f) + 1]
    d = quadratic_field(f)
    if d not in (0, -1):
        return ([tidy(-f[0] / f[1])], f[1:]) if len(f) == 2 else ([], f)
    roots, f = gaussian_rational_roots(f)
    if len(f) == 3 and quadratic_field(f) == 0:
        c0, c1, c2 = f
        z = (_sqrt(c1 * c1 - 4 * c0 * c2) - c1) / (2 * c2)
        return roots + [z, z.conjugate()], f[2:]
    return roots, f


def poly_roots_hybrid(coeffs, factors=None):
    """Roots of an exact polynomial with their multiplicities, one list of
    exact (value, multiplicity).  ``factors`` is the factor list of its
    ``squarefree_decomposition``, or the part of it whose roots the caller
    wants, when the caller has it.

    Each squarefree f_i gives the roots ``exact_roots`` finds, exact (Fraction
    or QQi), and their multiplicity is i.  A cofactor with roots left, which
    exact mode cannot hold, is refused by PreconditionError, naming its
    degree and its field.
    """
    if factors is None:
        factors = squarefree_decomposition([tidy(c) for c in coeffs[:_poly_degree(coeffs) + 1]])[1]
    out = []
    for f, i in factors:
        roots, cofactor = exact_roots(f)
        if len(cofactor) > 1:
            raise PreconditionError(
                f"exact mode cannot hold the roots of a factor of degree {len(cofactor) - 1} "
                f"over {field_name(quadratic_field(cofactor))}")
        out += [(z, i) for z in roots]
    return out


def eigenvalues(M, mode: Mode = EXACT):
    """Eigenvalues with multiplicity as a pair (exact, float) of lists of
    (value, multiplicity), the pair that ``perfbench/tracer.py`` counts: in
    exact mode (``poly_roots_hybrid``'s list, []), and in float mode ([],
    numpy's), where values within 1000 * mode.tol * max(1, max |z|) form one
    cluster."""
    if not len(M):
        return [], []
    if mode.is_exact:
        return poly_roots_hybrid(char_poly(M)), []
    vals = np.linalg.eigvals(to_numpy(M))
    clusters = []
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    for z in vals:
        for c in clusters:
            if abs(z - c[0]) <= 1000 * mode.tol * scale:
                c[1] += 1
                break
        else:
            clusters.append([complex(z), 1])
    return [], [(z, m) for z, m in clusters]


def eigen_split(K, M, D):
    """(eigenvalue, Elimination of its eigenspace) per distinct eigenvalue of
    M / D, M square carrier rows over K and D > 0, or None when M is not
    diagonalizable over C: a kernel is smaller than its multiplicity, or the
    kernels do not span.

    The eigenvalues are ``poly_roots_hybrid``'s, in its order, of the monic
    ``char_poly_rows``.  At an eigenvalue with D v = (a + b sqrt e) / q the
    rows of q M - (a + b sqrt e) I are eliminated, in Z[sqrt e] for M over Z,
    and else in K, whose field must hold v.
    """
    if not M:
        return []
    eigs = poly_roots_hybrid(char_poly_rows(K, M, D))
    if sum(mult for _, mult in eigs) != len(M):
        return None
    split = []
    for val, mult in eigs:
        E = carrier(quadratic_field([val])) if K is _Z else K
        coords = field_coords(val, 0 if E is _Z else E.d)
        if coords is None:
            raise no_common_field(E.d, val.d)
        (a, r), (b, t) = ((x * D).as_integer_ratio() for x in coords)
        q = math.lcm(r, t)
        v = a * (q // r) if E is _Z else (a * (q // r), b * (q // t))
        e = Elimination([E.divided([E.scale(E.lift(x), q) if i != j else
                                    E.add(E.scale(E.lift(x), q), E.scale(v, -1))
                                    for j, x in enumerate(row)]) for i, row in enumerate(M)], E)
        if len(M) - e.rank != mult:
            return None
        split.append((val, e))
    return split


def eigenspaces(M, mode: Mode = EXACT):
    """(eigenvalue, basis of Ker(M - eigenvalue I)) per distinct eigenvalue from
    ``eigenvalues``, or None when M is not diagonalizable over C: a kernel is
    smaller than its multiplicity, or the kernels do not span.  Exact, the
    ``eigen_split`` of its ``clear_matrix``, each basis the kernel of its
    elimination."""
    if mode.is_exact:
        split = eigen_split(*clear_matrix(M))
        return split and [(val, e.kernel) for val, e in split]
    A = to_numpy(M)
    eigs = eigenvalues(A, mode)[1]
    if sum(mult for _, mult in eigs) != len(A):
        return None
    split = []
    for val, mult in eigs:
        shifted = A.copy()
        shifted[np.diag_indices(len(A))] -= val
        sub = nullspace_float(shifted, mode.tol)
        if len(sub) != mult:
            return None
        split.append((val, sub))
    return split
