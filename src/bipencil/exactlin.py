"""Dense linear algebra over exact scalars, with a floating fallback.

Rank decisions are the load-bearing primitive of the whole pipeline.  The
exact kernel clears each row of denominators with one integer lcm, divides it
by its content (``primitive_row``) and then eliminates fraction-free on Python
ints, with one carrier per kind of input:
Z for real rational matrices, Z[i] ((re, im) int pairs) for Gaussian-rational
ones.  The rank is Bareiss (1968) forward elimination; the reduced row
echelon form is fraction-free Gauss-Jordan, turned back into Fraction / QQi
entries only at the end.  A third carrier, F_p (p = PRIME = 2^61 - 1),
proves one-sided facts: rank mod p <= rank over Q, so an F_p rank that
reaches a known upper bound, such as a certified pencil rank, proves the
rational rank; a lower one, or p dividing a denominator, proves nothing and
the caller rechecks over Q.  Every primitive decides exactly when the mode is
exact and every entry is exact (``decides_exactly``), and otherwise in floats
at ``Mode.tol``, the one float tolerance; the float rank thresholds singular
values at tol * sigma_max.  A nonzero scale of a row changes no rank, kernel
or reduced row echelon form, so a caller may pass such a multiple of its
matrix, an integer one say.  ``coords_in_span`` resolves any number of
vectors in a span by one reduced row echelon form of the basis beside them
all (a least-squares solve per vector for float input); ``restrict`` reads an
operator's matrix on an invariant span off one such call, and ``solve`` reads
B^-1 C off one of [B | C].  ``poly_roots_hybrid`` lists the roots of an
exact polynomial as (value, multiplicity) pairs, a value exact (Fraction or
QQi) when it is a Gaussian rational and a complex float otherwise; every
multiplicity is exact, read off Yun's squarefree decomposition
(``squarefree_decomposition``).  ``eigenvalues`` gives the same list for a
matrix, and ``eigenspaces``, the one eigen-split, also decides
diagonalizability over C.  Matrices are
plain lists of lists holding Fraction / QQi / int entries (or floats in float
mode); vectors are lists.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .scalars import (EXACT, Mode, QQi, convergent_denominators, is_exact_scalar,
                      snap_candidates, tidy)

# ---------------------------------------------------------------------------
# basic matrix utilities
# ---------------------------------------------------------------------------


def shape(M):
    return len(M), len(M[0]) if M else 0


def identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(row) for row in zip(*M)] if M else []


def shift(M, c):
    """M - c I."""
    return [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]


def mat_mul(A, B):
    n, k = shape(A)
    k2, m = shape(B)
    if k != k2:
        raise ValueError("matrix shape mismatch")
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def bilinear(A, u, v):
    """u^T A v for covectors u, v, summed as sum_i u_i (sum_j A_ij v_j).

    Zero entries of u, A and v are skipped: the matrices of a pencil at a
    point are mostly zero, and skipping a zero product moves no float sum.
    """
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    total = 0
    for ui, row in zip(u, A):
        if ui != 0:
            inner = 0
            for j, x in support:
                if row[j] != 0:
                    inner = inner + row[j] * x
            total = total + ui * inner
    return total


def to_numpy(M) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in M], dtype=complex)


# ---------------------------------------------------------------------------
# the exact kernel: fraction-free elimination over Z and Z[i]
# ---------------------------------------------------------------------------


def primitive_row(row):
    """The real rational row times the lcm of its denominators, divided by the
    gcd of the result: the primitive integer row of the same direction."""
    ratios = [(x.re if isinstance(x, QQi) else x).as_integer_ratio() for x in row]
    lcm = math.lcm(*{d for _, d in ratios})
    ints = [a * (lcm // d) for a, d in ratios]
    content = math.gcd(*ints)
    return [a // content for a in ints] if content > 1 else ints


class _Z:
    """Carrier Z, for real rational matrices: entries are ints."""

    zero, one = 0, 1
    clear = staticmethod(primitive_row)

    @staticmethod
    def combine(p, f, prev, row, prow):
        """(p * row - f * prow) / prev, entrywise; the division is exact."""
        if not f:
            return [p * a // prev for a in row] if p != prev else row
        return [(p * a - f * b) // prev for a, b in zip(row, prow)]

    @staticmethod
    def quotient(a, d):
        return Fraction(a, d)


class _ZI:
    """Carrier Z[i], for Gaussian-rational matrices: entries are (re, im) int pairs."""

    zero, one = (0, 0), (1, 0)

    @staticmethod
    def clear(row):
        """The row times the lcm of the denominators of both parts of its entries."""
        parts = [(x.re, x.im) if isinstance(x, QQi) else (x, 0) for x in row]
        ratios = [(re.as_integer_ratio(), im.as_integer_ratio()) for re, im in parts]
        lcm = math.lcm(*{d for pair in ratios for _, d in pair})
        return [(a * (lcm // d), b * (lcm // e)) for (a, d), (b, e) in ratios]

    @staticmethod
    def combine(p, f, prev, row, prow):
        """(p * row - f * prow) / prev, entrywise: the product with conj(prev)
        is divided exactly by |prev|^2."""
        (pr, pi), (fr, fi), (qr, qi) = p, f, prev
        n = qr * qr + qi * qi
        out = []
        for (ar, ai), (br, bi) in zip(row, prow):
            cr = pr * ar - pi * ai - fr * br + fi * bi
            ci = pr * ai + pi * ar - fr * bi - fi * br
            out.append(((cr * qr + ci * qi) // n, (ci * qr - cr * qi) // n))
        return out

    @staticmethod
    def quotient(a, d):
        (ar, ai), (dr, di) = a, d
        n = dr * dr + di * di
        return tidy(QQi(Fraction(ar * dr + ai * di, n), Fraction(ai * dr - ar * di, n)))


PRIME = 2 ** 61 - 1


@functools.lru_cache(maxsize=256)
def _inverse(d: int, prime: int) -> int:
    return pow(d, -1, prime)      # ValueError when prime divides d


def residues(row):
    """Each real rational entry a/b as a * b^-1 mod PRIME; ValueError when PRIME
    divides b or an entry is not a real rational."""
    out = []
    for x in row:
        if type(x) is not int:
            if isinstance(x, QQi):
                if x.im:
                    raise ValueError("a non-real entry has no residue")
                x = x.re
            elif not isinstance(x, Fraction):
                raise ValueError("an inexact entry has no residue")
            a, d = x.as_integer_ratio()
            x = a if d == 1 else a * _inverse(d, PRIME)
        out.append(x % PRIME)
    return out


class _Fp:
    """Carrier F_PRIME, for real rational matrices: entries are ints mod PRIME."""

    zero, one = 0, 1
    clear = staticmethod(residues)

    @staticmethod
    def combine(p, f, prev, row, prow):
        """row - (f / p) * prow, entrywise: over a field no row needs the
        scaling by p / prev, so a row with f = 0 is kept as it is."""
        if not f:
            return row
        c = f * _inverse(p, PRIME) % PRIME
        return [(a - c * b) % PRIME for a, b in zip(row, prow)]

    @staticmethod
    def quotient(a, d):
        return a * _inverse(d, PRIME) % PRIME


def _eliminate(M, reduce: bool, K=None):
    """Fraction-free elimination of an exact matrix; returns (carrier, rows, pivots).

    The rows are the denominator-cleared rows of M over Z, or over Z[i] when
    an entry has a nonzero imaginary part, or their residues when the carrier
    ``K`` is _Fp.  At a pivot p in column ``col`` (previous pivot ``prev``, 1
    at the start) each row below the pivot row becomes (p * row - row[col] *
    pivot_row) / prev: the forward elimination of Bareiss (1968), whose
    entries are minors of M, so the division is exact.  With ``reduce`` the
    rows above are updated the same way, which is fraction-free Gauss-Jordan:
    every pivot then equals the last one, and dividing a pivot row by its
    pivot gives the reduced row echelon form.  Over F_PRIME the rows are not
    scaled (see _Fp.combine), and each pivot row is divided by its own pivot.
    """
    K = K or (_ZI if any(isinstance(x, QQi) and x.im for row in M for x in row) else _Z)
    combine, zero = K.combine, K.zero
    A = [K.clear(row) for row in M]
    n, m = shape(A)
    pivots = []
    prev = K.one
    for col in range(m):
        k = len(pivots)
        piv = next((r for r in range(k, n) if A[r][col] != zero), None)
        if piv is None:
            continue
        A[k], A[piv] = A[piv], A[k]
        prow = A[k]
        p = prow[col]
        # rows below the pivot row are zero left of col
        tail = prow[col:]
        for r in range(k + 1, n):
            row = A[r]
            row[col:] = combine(p, row[col], prev, row[col:], tail)
        if reduce:
            for r in range(k):
                row = A[r]
                A[r] = combine(p, row[col], prev, row, prow)
        prev = p
        pivots.append(col)
        if len(pivots) == n:
            break
    return K, A, pivots


def mat_rank_exact(M) -> int:
    """Rank by fraction-free (Bareiss) elimination on Python ints.

    Rows are cleared of denominators with one lcm each; the kernel runs over
    Z for real rational matrices and over Z[i], on (re, im) int pairs, for
    Gaussian-rational ones.
    """
    return len(_eliminate(M, reduce=False)[2])


def span_mod_p(vectors):
    """Echelon rows of residues spanning the same space over F_PRIME as the
    residues of ``vectors``; ValueError as for ``residues``."""
    _, A, pivots = _eliminate(vectors, False, _Fp)
    return A[:len(pivots)]


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def svd_rank(M, eps: float, warnings=None, what: str = "") -> int:
    A = to_numpy(M)
    if A.size == 0:
        return 0
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    cutoff = eps * sv[0]
    rank = int(np.sum(sv > cutoff))
    if warnings is not None:
        lo = sv[rank] if rank < sv.size else 0.0
        hi = sv[rank - 1] if rank >= 1 else sv[0]
        if rank < sv.size and lo > cutoff / 10:
            warnings.append(f"borderline rank decision{': ' + what if what else ''} "
                            f"(gap {lo / sv[0]:.3e} within 10x of tolerance)")
        elif rank >= 1 and hi < 10 * cutoff:
            warnings.append(f"borderline rank decision{': ' + what if what else ''} "
                            f"(kept value {hi / sv[0]:.3e} within 10x of tolerance)")
    return rank


def decides_exactly(M, mode: Mode) -> bool:
    """The one exact-or-float rule: exact when the mode and every entry of M are."""
    return mode.is_exact and all(is_exact_scalar(x) for row in M for x in row)


def mat_rank(M, mode: Mode = EXACT, warnings=None, what: str = "") -> int:
    n, m = shape(M)
    if n == 0 or m == 0:
        return 0
    if decides_exactly(M, mode):
        return mat_rank_exact(M)
    return svd_rank(M, mode.tol, warnings, what)


# ---------------------------------------------------------------------------
# reduced row echelon / nullspace / solving (exact field arithmetic)
# ---------------------------------------------------------------------------


def rref(M):
    """Reduced row echelon form over Q or Q(i); returns (R, pivot_cols).

    Fraction-free Gauss-Jordan over Z or Z[i] (see ``_eliminate``); each pivot
    row is divided by its pivot only at the end, giving Fraction entries, or
    QQi for non-real ones.  Rows past the rank are zero.
    """
    K, A, pivots = _eliminate(M, reduce=True)
    _, m = shape(A)
    R = [[K.quotient(a, row[col]) for a in row] for row, col in zip(A, pivots)]
    R += [[Fraction(0)] * m for _ in range(len(A) - len(pivots))]
    return R, pivots


def _nullspace(M, K=None):
    """Right-kernel basis in pivot-normalized echelon form (deterministic): one
    vector per free column, read off the fraction-free Gauss-Jordan form over
    the carrier K, each pivot row divided by its own pivot."""
    if not M or not M[0]:
        return []
    K, A, pivots = _eliminate(M, True, K)
    m = len(M[0])
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(A, pivots):
            v[pc] = tidy(-K.quotient(row[fc], row[pc]))
        basis.append(v)
    return basis


def nullspace_exact(M):
    """Right-kernel basis over Q or Q(i) in pivot-normalized echelon form."""
    return _nullspace(M)


def nullspace_mod_p(M):
    """Vectors whose residues are a right-kernel basis over F_PRIME of a real
    rational matrix; ValueError as for ``residues``."""
    return _nullspace(M, _Fp)


def nullspace_float(M, eps: float):
    A = to_numpy(M)
    if A.size == 0:
        n = len(M[0]) if M else 0
        return [list(np.eye(n)[j]) for j in range(n)]
    _, sv, vh = np.linalg.svd(A)
    cutoff = eps * (sv[0] if sv.size else 0.0)
    ker = [list(vh[i].conj()) for i in range(len(vh)) if i >= len(sv) or sv[i] <= cutoff]
    return ker


def nullspace(M, mode: Mode = EXACT):
    if decides_exactly(M, mode):
        return nullspace_exact(M)
    return nullspace_float(M, mode.tol)


def coords_in_span(basis_vectors, vectors, mode: Mode = EXACT):
    """Coordinates of each of ``vectors`` in span(basis_vectors), or None if
    any of them is outside.

    Exact input takes one reduced row echelon form of the basis columns beside
    all the vectors: a pivot in a vector's column puts it outside the span.
    Float input takes a least-squares solve per vector, outside when the
    residual exceeds 100 * mode.tol * max(1, max |w|).
    """
    m = len(basis_vectors)
    if not m:
        inside = all(mode.zero(x) for w in vectors for x in w)
        return [[] for _ in vectors] if inside else None
    if decides_exactly(list(basis_vectors) + list(vectors), mode):
        R, pivots = rref(transpose(list(basis_vectors) + list(vectors)))
        if any(c >= m for c in pivots):
            return None
        rows = dict(zip(pivots, R))
        return [[rows[c][m + t] if c in rows else Fraction(0) for c in range(m)]
                for t in range(len(vectors))]
    An = to_numpy(transpose(basis_vectors))
    out = []
    for w in vectors:
        bn = np.array([complex(x) for x in w])
        x, *_ = np.linalg.lstsq(An, bn, rcond=None)
        norm = max(1.0, float(np.abs(bn).max(initial=0.0)))
        if float(np.abs(An @ x - bn).max(initial=0.0)) > 100 * mode.tol * norm:
            return None
        out.append(list(x))
    return out


def restrict(A, basis, mode: Mode = EXACT):
    """Matrix of the operator A on the invariant span(basis), or None when an
    image A b leaves that span; all images are resolved in one call."""
    coords = coords_in_span(basis, [mat_vec(A, b) for b in basis], mode)
    return None if coords is None else transpose(coords)


def solve(B, C, mode: Mode = EXACT):
    """B^-1 C for a square B: [] when B is empty, None when it is singular.

    Exact input takes one reduced row echelon form of [B | C]; B is
    invertible when the pivots fill its columns, and the rows then hold
    B^-1 C.  Float input is singular when ``svd_rank`` says so at mode.tol,
    and otherwise numpy's inverse of B is multiplied into C.
    """
    n = len(B)
    if not n:
        return []
    if decides_exactly(B + C, mode):
        R, pivots = rref([list(b) + list(c) for b, c in zip(B, C)])
        return [row[n:] for row in R] if pivots[:n] == list(range(n)) else None
    if svd_rank(B, mode.tol) < n:
        return None
    return mat_mul([list(row) for row in np.linalg.inv(to_numpy(B))], C)


def basis_union(existing, new_vectors, mode: Mode = EXACT):
    """Extend an independent family by the independent members of new_vectors.

    A vector is kept when it is independent of the family and of the vectors
    kept before it.  For exact input that greedy choice is the pivot columns
    of one reduced row echelon form, with the vectors as columns, each first
    cleared of its own denominators; float input is checked prefix by prefix.
    """
    out = [list(v) for v in existing]
    vectors = out + [list(v) for v in new_vectors]
    if decides_exactly(vectors, mode):
        K = _ZI if any(isinstance(x, QQi) and x.im for v in vectors for x in v) else _Z
        cleared = [K.clear(v) for v in vectors]
        if K is _ZI:
            cleared = [[QQi(re, im) for re, im in v] for v in cleared]
        _, pivots = rref(transpose(cleared))
        return out + [vectors[j] for j in pivots if j >= len(out)]
    for v in vectors[len(out):]:
        if mat_rank(out + [v], mode) == len(out) + 1:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# characteristic polynomials and exact root extraction
# ---------------------------------------------------------------------------


def char_poly(M):
    """Monic characteristic polynomial det(xI - M), ascending coefficients.

    Faddeev-LeVerrier recursion on D M, D the common denominator of exact
    entries: its characteristic polynomial is in Z or Z[i], so each division
    by k is exact, on Python ints or integral QQi; coefficient n - k is then
    rescaled by D^k.  Float entries run the recursion unscaled.
    """
    n, m = shape(M)
    if n != m:
        raise ValueError("characteristic polynomial of non-square matrix")
    D = None
    if decides_exactly(M, EXACT):
        parts = [(x.re, x.im) if isinstance(x, QQi) else (Fraction(x), 0) for row in M for x in row]
        D = Fraction(math.lcm(*(Fraction(y).denominator for pair in parts for y in pair)))
        flat = [QQi(re * D, im * D) if im else int(re * D) for re, im in parts]
        M = [flat[i * n:(i + 1) * n] for i in range(n)]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = M
    for k in range(1, n + 1):
        t = -sum(Mk[i][i] for i in range(n))
        c = t // k if D and isinstance(t, int) else t / k
        coeffs[n - k] = tidy(c / D ** k) if D else c
        if k < n:
            Mk = mat_mul(M, [[x + c if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(Mk)])
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
    """Monic gcd over the exact field QQ(i)."""
    a = list(a[:_poly_degree(a) + 1])
    b = list(b[:_poly_degree(b) + 1])
    while any(c != 0 for c in b):
        a, b = b, _poly_divmod(a, b)[1]
        b = b[:_poly_degree(b) + 1]
    lead = a[-1]
    if lead == 0:
        return [Fraction(1)]
    return [tidy(c / lead) for c in a]


def _poly_divmod(a, b):
    """Long division: (q, r) with a = q b + r and r zero or of degree < deg b."""
    r = list(a)
    db = _poly_degree(b)
    lead = b[db]
    q = [Fraction(0)] * (max(_poly_degree(a) - db, 0) + 1)
    while _poly_degree(r) >= db and any(c != 0 for c in r):
        da = _poly_degree(r)
        f = tidy(r[da] / lead)
        q[da - db] = f
        for i in range(db + 1):
            r[da - db + i] = tidy(r[da - db + i] - f * b[i])
    return q, r


def squarefree_decomposition(coeffs):
    """(sf, [(f_i, i)]): the squarefree part sf = coeffs / gcd(coeffs, coeffs'),
    and monic, squarefree, pairwise coprime f_i of degree >= 1 whose f_i^i
    multiply to coeffs up to a scalar, by Yun's algorithm (SYMSAC 1976): from
    b = sf and c = coeffs' / gcd, each step takes d = c - b', f_i = gcd(b, d),
    and b / f_i and d / f_i as the next b and c, until b is a constant."""
    g = poly_gcd_exact(coeffs, poly_deriv(coeffs))
    sf = list(coeffs) if _poly_degree(g) == 0 else _poly_divmod(coeffs, g)[0]
    b, c = sf, _poly_divmod(poly_deriv(coeffs), g)[0]
    factors = []
    i = 1
    while _poly_degree(b) > 0:
        d = [tidy(x - y) for x, y in
             itertools.zip_longest(c, poly_deriv(b), fillvalue=Fraction(0))]
        f = poly_gcd_exact(b, d)
        if _poly_degree(f) > 0:
            factors.append((f, i))
        b, c = _poly_divmod(b, f)[0], _poly_divmod(d, f)[0]
        i += 1
    return sf, factors


NEWTON_ITERS = 60     # cap on the Newton steps that polish one root
SNAP_TOL = 1e-7       # distance within which a float root is tried as an exact one


def _newton_polish(coeffs_float, dcoeffs_float, z: complex) -> complex:
    for _ in range(NEWTON_ITERS):
        p = 0j
        for c in reversed(coeffs_float):
            p = p * z + c
        dp = 0j
        for c in reversed(dcoeffs_float):
            dp = dp * z + c
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def poly_roots_hybrid(coeffs):
    """Roots of an exact polynomial with their multiplicities, one list of
    (value, multiplicity): exact values first, then floats.

    The roots of the squarefree part are found by numpy and Newton-polished
    on it, where every root is simple, so a multiple root of the original
    loses no accuracy to its multiplicity.  A polished root that snaps to a Gaussian
    rational root, checked by exact evaluation, is exact (Fraction or QQi);
    the others stay complex.  Of the f_i of ``squarefree_decomposition``, an
    exact root's multiplicity is the i of the one it is a root of, and a float
    root's the i of the one smallest at it relative to its largest coefficient.
    """
    deg = _poly_degree(coeffs)
    coeffs = [tidy(c) for c in coeffs[:deg + 1]]
    sf, factors = squarefree_decomposition(coeffs)
    sf_float = [complex(c) for c in sf]
    dsf_float = [complex(c) for c in poly_deriv(sf)]
    approx = np.roots(list(reversed(sf_float)))
    polished = [_newton_polish(sf_float, dsf_float, complex(z)) for z in approx]

    # A root r of an integral polynomial with leading coefficient c makes c*r
    # a Gaussian integer, so both parts of r have denominators dividing |c|^2;
    # that rules out most candidates before poly_eval.
    lead_re, lead_im = _ZI.clear(coeffs)[-1]
    norm = lead_re ** 2 + lead_im ** 2
    floats = [([complex(c) for c in f], i) for f, i in factors]
    exact_roots, float_roots = [], []
    for z in polished:
        dens = [q for q in convergent_denominators(z, SNAP_TOL) if norm % q == 0]
        cand = next((c for c in snap_candidates(z, SNAP_TOL, dens)
                     if poly_eval(coeffs, c) == 0), None)
        if cand is None:
            float_roots.append((z, min(floats, key=lambda f: abs(poly_eval(f[0], z))
                                       / max(map(abs, f[0])))[1]))
        elif all(r != cand for r, _ in exact_roots):
            exact_roots.append((cand, next(i for f, i in factors if poly_eval(f, cand) == 0)))
    return exact_roots + float_roots


def eigenvalues(M, mode: Mode = EXACT):
    """Eigenvalues with multiplicity as a pair (exact, float) of lists of
    (value, multiplicity), the pair that ``perfbench/tracer.py`` counts: of an
    exact matrix in exact mode the list of ``poly_roots_hybrid`` cut where
    its floats begin, and otherwise ([], numpy's), where values within
    1000 * mode.tol * max(1, max |z|) form one cluster."""
    if not M:
        return [], []
    if decides_exactly(M, mode):
        roots = poly_roots_hybrid(char_poly(M))
        exact = [r for r in roots if is_exact_scalar(r[0])]
        return exact, roots[len(exact):]
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


def eigenspaces(M, mode: Mode = EXACT):
    """(eigenvalue, basis of Ker(M - eigenvalue I)) per distinct eigenvalue from
    ``eigenvalues``, or None when M is not diagonalizable over C: a kernel is
    smaller than its multiplicity, or the kernels do not span."""
    eigs = [e for part in eigenvalues(M, mode) for e in part]
    if sum(mult for _, mult in eigs) != len(M):
        return None
    split = []
    for val, mult in eigs:
        sub = nullspace(shift(M, val), mode)
        if len(sub) != mult:
            return None
        split.append((val, sub))
    return split
