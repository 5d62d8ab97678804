import itertools
import json
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipencil import exactlin
from bipencil.errors import PreconditionError
from bipencil.exactlin import (_poly_degree, _poly_quotient, char_poly,
                               coords_in_span, eigenvalues, gaussian_rational_roots,
                               identity, mat_mul, mat_rank, mat_rank_exact, mat_vec,
                               nullspace_exact, poly_eval, poly_gcd_exact, poly_roots_hybrid,
                               primitive_row, rref, solve, squarefree_decomposition, transpose)
from bipencil.scalars import (EXACT, QQi, cimag, claim, creal, float_mode, format_scalar, near,
                              tidy)

from oracles import bareiss, eigensplit, euclid, padic
from oracles.dense import bilinear, complex_array, entrywise_array

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def brute_rank(M):
    """Oracle: rank as the largest k with a nonvanishing k x k minor."""
    n = len(M)
    m = len(M[0]) if M else 0

    def minor_det(rows, cols):
        k = len(rows)
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = Fraction(1)
            for i in range(k):
                prod *= M[rows[i]][cols[perm[i]]]
            total += sign * prod
        return total

    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if minor_det(rows, cols) != 0:
                    return k
    return 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_matches_minor_oracle(rows):
    M = [[Fraction(x) for x in row] for row in rows]
    assert mat_rank_exact(M) == brute_rank(M)


def test_rank_gaussian_entries():
    i = QQi(0, 1)
    M = [[i, Fraction(1)], [Fraction(-1), i]]
    assert mat_rank_exact(M) == 1
    M2 = [[i, Fraction(1)], [Fraction(1), i]]
    assert mat_rank_exact(M2) == 2


# -- differential test of the integer kernel ---------------------------------
# The Fraction/QQi elimination that the integer kernel replaced, kept here as
# the oracle: Bareiss on Fraction rows for the rank, field Gauss-Jordan for
# the reduced row echelon form and what is built on it.


def oracle_rank(M):
    if not M or not M[0]:
        return 0
    A = []
    for row in M:
        lcm = 1
        for x in row:
            for d in ((x.re.denominator, x.im.denominator) if isinstance(x, QQi)
                      else (Fraction(x).denominator,)):
                a, b = lcm, d
                while b:
                    a, b = b, a % b
                lcm = lcm // a * d
        A.append([x * lcm for x in row])
    n, m = len(A), len(A[0])
    rank, prev = 0, 1
    for col in range(m):
        piv = next((r for r in range(rank, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(rank + 1, n):
            for c in range(col + 1, m):
                A[r][c] = tidy((A[rank][col] * A[r][c] - A[r][col] * A[rank][c]) / prev)
            A[r][col] = 0
        prev = A[rank][col]
        rank += 1
        if rank == n:
            break
    return rank


def oracle_rref(M):
    A = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in M]
    n, m = len(A), len(A[0]) if A else 0
    pivots = []
    for col in range(m):
        row = len(pivots)
        piv = next((r for r in range(row, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = A[row][col]
        A[row] = [tidy(x / inv) for x in A[row]]
        for r in range(n):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [tidy(a - f * b) for a, b in zip(A[r], A[row])]
        pivots.append(col)
        if len(pivots) == n:
            break
    return A, pivots


def oracle_nullspace(M):
    R, pivots = oracle_rref(M)
    m = len(M[0])
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = tidy(-R[r][fc])
        basis.append(v)
    return basis


def oracle_solve(A, b):
    m = len(A[0])
    R, pivots = oracle_rref([list(row) + [bv] for row, bv in zip(A, b)])
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        x[pc] = R[r][m]
    return x


def oracle_inverse(M):
    n = len(M)
    R, pivots = oracle_rref([list(row) + list(identity(n)[i]) for i, row in enumerate(M)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]


def typed(value):
    """Nested lists with each scalar paired with its type, for exact comparison."""
    if isinstance(value, list):
        return [typed(v) for v in value]
    return value, type(value)


def _entry(num, den, kind, im_num, im_den):
    """By kind: the int num, the Fraction num/den, a real QQi of it, or a QQi
    with imaginary part im_num/im_den; a third of the real parts are 0."""
    if num % 3 == 0:
        num = 0
    if kind == 0:
        return num
    x = Fraction(num, den)
    return x if kind == 1 else QQi(x, Fraction(im_num, im_den) if kind == 3 else 0)


def entries(gaussian):
    return st.builds(_entry, st.integers(-6, 6), st.integers(1, 3),
                     st.integers(0, 3 if gaussian else 2),
                     st.integers(-4, 4), st.integers(1, 3))


@st.composite
def exact_matrices(draw):
    """Fraction or QQi matrices, tall, wide or square, often rank-deficient,
    with zero rows and columns planted; entries mix int, Fraction and QQi."""
    entry = entries(draw(st.booleans()))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def block(rows, cols):
        flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return [flat[i * cols:(i + 1) * cols] for i in range(rows)]

    k = draw(st.integers(0, min(n, m) + 1))
    if k <= min(n, m):  # rank at most k: a product of n x k and k x m
        B, C = block(n, k), block(k, m)
        M = [[sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
             for i in range(n)]
    else:
        M = block(n, m)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        M[i] = [draw(st.sampled_from([0, Fraction(0), QQi(0, 0)]))] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in M:
            row[j] = Fraction(0)
    return M


@settings(max_examples=100, deadline=None)
@given(exact_matrices(), st.data())
def test_integer_kernel_matches_fraction_elimination(M, data):
    assert mat_rank_exact(M) == oracle_rank(M)

    R, pivots = rref(M)
    R0, pivots0 = oracle_rref(M)
    assert pivots == pivots0
    assert R == R0
    # callers read only the pivot rows; the oracle leaves the input's types in
    # its zero rows
    assert typed(R[:len(pivots)]) == typed(R0[:len(pivots)])

    assert typed(nullspace_exact(M)) == typed(oracle_nullspace(M))

    n, m = len(M), len(M[0])
    entry = entries(any(isinstance(x, QQi) and x.im for row in M for x in row))
    for b in (data.draw(st.lists(entry, min_size=n, max_size=n)),
              [sum((a * x for a, x in zip(row, data.draw(st.lists(entry, min_size=m,
                                                                   max_size=m)))),
                   Fraction(0)) for row in M]):
        coords = coords_in_span(transpose(M), [b])
        assert typed(None if coords is None else coords[0]) == typed(oracle_solve(M, b))

    if n == m:
        expected = oracle_inverse(M)
        assert typed(solve(M, identity(n))) == typed(expected)


@st.composite
def integer_matrices(draw):
    """Rational matrices up to 7 x 7, sparse (about two entries in three
    zero) or dense, some entries with denominators, with zero rows and rows
    that are combinations of two others planted."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    sparse = draw(st.booleans())
    ints = (st.integers(-9, 9).map(lambda x: x if abs(x) > 6 else 0) if sparse
            else st.integers(-60, 60))
    entry = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 4)))
    M = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c, e = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        M[i] = [c * x + e * y for x, y in zip(M[a], M[b])]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        M[i] = [0] * m
    return M


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_integer_elimination_rows_are_no_larger_than_bareiss(M):
    # each forward and reduced row over Z is the primitive row on the line of
    # the Bareiss / fraction-free Gauss-Jordan row of the same index
    e = exactlin.eliminate(M, 0)
    cleared = [primitive_row(row) for row in M]
    forward, pivots = bareiss.bareiss(cleared, reduce=False)
    reduced, reduced_pivots = bareiss.bareiss(cleared, reduce=True)
    assert e.pivots == pivots == reduced_pivots
    assert len(e.rows) == len(forward) and len(e.reduced) == e.rank
    for new, old in [*zip(e.rows, forward), *zip(e.reduced, reduced)]:
        assert all(abs(a) <= abs(b) for a, b in zip(new, old)), (new, old)
        if any(old):
            c = next(c for c, b in enumerate(old) if b)
            assert all(a * old[c] == b * new[c] for a, b in zip(new, old))
        else:
            assert not any(new)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, -3, 5]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.data())
def test_quadratic_field_elimination_matches_field_gauss_jordan(d, n, m, k, data):
    # over Z[sqrt d] the reduced rows are back-substituted from Bareiss's
    # forward rows with one exact division each: a product of n x k and k x m
    # matrices over Q(sqrt d), of rank at most k, against Gauss-Jordan in the
    # field
    entry = st.builds(lambda a, b, q: QQi(Fraction(a, q), Fraction(b, q), d),
                      st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3))
    B = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    C = [data.draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)]
    M = [[tidy(sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0))) for j in range(m)]
         for i in range(n)]
    R, pivots = rref(M)
    R0, pivots0 = oracle_rref(M)
    assert pivots == pivots0 and mat_rank_exact(M) == len(pivots)
    assert typed(R[:len(pivots)]) == typed(R0[:len(pivots)])
    assert typed(nullspace_exact(M)) == typed(oracle_nullspace(M))


@settings(max_examples=15, deadline=None)
@given(st.integers(7, 12), st.booleans(), st.randoms(use_true_random=False))
def test_integer_kernel_matches_on_larger_matrices(n, gaussian, rnd):
    """Bigger minors for the exact divisions: n x (n + 1), rank at most n - 2."""
    def entry():
        re = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
        return QQi(re, Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))) if gaussian else re

    k = max(n - 2, 1)
    B = [[entry() for _ in range(k)] for _ in range(n)]
    C = [[entry() for _ in range(n + 1)] for _ in range(k)]
    M = [[tidy(sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)))
          for j in range(n + 1)] for i in range(n)]
    assert mat_rank_exact(M) == oracle_rank(M) <= k
    (R, pivots), (R0, pivots0) = rref(M), oracle_rref(M)
    assert pivots == pivots0 and R == R0
    assert typed(R[:len(pivots)]) == typed(R0[:len(pivots)])
    assert typed(nullspace_exact(M)) == typed(oracle_nullspace(M))


@st.composite
def field_matrices(draw):
    """Matrices over Q or over Q(sqrt d), d in {-1, 2, -3}: wide, tall or
    square up to 7 x 7, of rank at most k as a product of n x k and k x m
    matrices (k = 0 the zero matrix, k = m <= n often full column rank), with
    zero rows planted."""
    d = draw(st.sampled_from([0, -1, 2, -3]))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(n, m)))
    coord = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    entry = st.builds(lambda a, b: tidy(QQi(a, b, d)), coord, coord) if d else coord
    B = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    C = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)]
    M = [[tidy(sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0))) for j in range(m)]
         for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        M[i] = [Fraction(0)] * m
    return M


@settings(max_examples=200, deadline=None)
@given(field_matrices())
@example([[0, 0, 0], [0, 0, 0]])                          # rank 0
@example([[1, 2], [3, 4], [5, 6]])                        # full column rank, tall
@example([[2, 4, 6, 8]])                                  # one row, wide
@example([[QQi(1, 1, 2), 2, 0], [1, QQi(0, 1, 2), 0]])    # rank 1 over Z[sqrt 2]
def test_kernel_rows_match_the_reduced_form_read_off(M):
    # the back-substitution at the free columns gives the lines, types and
    # free columns that the reduced rows gave, on both carriers, and leaves
    # the reduced form uncomputed
    e = exactlin.eliminate(M)
    rows, free = e.kernel_rows
    assert typed([rows, free]) == typed(list(bareiss.kernel_rows(e)))
    assert len(free) == e.width - e.rank
    # a positive int at the free column: (x, 0) with x > 0 over Z[sqrt d]
    assert all(e.K.coords(v[f])[0] > 0 and not any(e.K.coords(v[f])[1:])
               for v, f in zip(rows, free))
    assert "reduced" not in e.__dict__


@pytest.mark.parametrize("M", [[[1, 2, 3], [2, 4, 7]],
                               [[QQi(0, 1), 1, 2], [-1, QQi(0, 1), QQi(0, 2)]]],
                         ids=["Z", "Z[i]"])
@pytest.mark.parametrize("attr", ["kernel", "kernel_lines", "kernel_rows"])
def test_the_kernel_leaves_the_reduced_form_uncomputed(M, attr):
    e = exactlin.eliminate(M)
    assert getattr(e, attr) and "reduced" not in e.__dict__
    assert e.reduced and "reduced" in e.__dict__


def typescan_primitive_row(row):
    """``primitive_row`` as it read a row before: a scan for ints, then one gcd."""
    ints = list(row) if all(type(x) is int for x in row) else exactlin._cleared(row)
    return [a // g for a in ints] if (g := math.gcd(*ints)) > 1 else ints


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=6),                    # int rows
    st.lists(st.integers(-30, 30).map(lambda x: 6 * x), max_size=6),          # content 6
    st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20),
                       st.fractions(max_denominator=12),
                       st.integers(-30, 30).map(Fraction),
                       st.fractions(max_denominator=6).map(lambda x: QQi(x, 0))),
             max_size=6)))
@example([])
@example([0, 0, 0])
@example([Fraction(0), 0])
@example([-4, -6, 8])
@example([Fraction(-4), Fraction(-6)])
@example([Fraction(-2, 3), Fraction(4, 9)])
@example([7, 0, -14])
def test_primitive_row_is_the_type_scan_version(row):
    out = primitive_row(row)
    assert typed(out) == typed(typescan_primitive_row(row)) and out is not row
    assert all(type(a) is int for a in out)


# -- the characteristic polynomial on integers ------------------------------------


def oracle_char_poly(M):
    """Oracle: the Faddeev-LeVerrier recursion on Fraction / QQi entries that
    the integer recursion replaced."""
    n = len(M)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = [list(row) for row in M]
    for k in range(1, n + 1):
        c = -sum(Mk[i][i] for i in range(n)) / k
        coeffs[n - k] = tidy(c)
        if k < n:
            Mk = mat_mul(M, [[x + c if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(Mk)])
    return coeffs


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(0, 6), st.data())
def test_integer_char_poly_matches_the_fraction_recursion(gaussian, n, data):
    flat = data.draw(st.lists(entries(gaussian), min_size=n * n, max_size=n * n))
    M = [[Fraction(x) if isinstance(x, int) else x for x in flat[i * n:(i + 1) * n]]
         for i in range(n)]
    assert typed(char_poly(M)) == typed(oracle_char_poly(M))


def span_union(existing, new_vectors, mode=EXACT):
    """The vectors of a ``Span`` extended by ``existing``, then by ``new_vectors``."""
    span = exactlin.Span(mode)
    return span.extend(existing) + span.extend(new_vectors)


@st.composite
def vector_families(draw):
    """(existing, new): an independent family and candidates of the same
    length with zero vectors, duplicates and dependent combinations planted,
    entries int, Fraction or QQi with mixed denominators."""
    entry = entries(draw(st.booleans()))
    m = draw(st.integers(1, 6))
    vector = st.lists(entry, min_size=m, max_size=m)
    existing = bareiss.basis_union([], draw(st.lists(vector, max_size=3)))
    new = draw(st.lists(vector, max_size=6))
    pool = existing + new
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            v = [draw(st.sampled_from([0, Fraction(0), QQi(0, 0)]))] * m
        elif kind == 1 and pool:
            v = list(draw(st.sampled_from(pool)))
        elif pool:
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            c, d = draw(entry), draw(entry)
            v = [tidy(c * x + d * y) for x, y in zip(a, b)]
        else:
            continue
        new.insert(draw(st.integers(0, len(new))), v)
    return existing, new


@settings(max_examples=150, deadline=None)
@given(vector_families())
def test_basis_union_matches_greedy_rank_loop(family):
    existing, new = family
    assert typed(span_union(existing, new)) == typed(bareiss.basis_union(existing, new))


def assert_echelon(span):
    """Each kept row of an exact span is primitive, nonzero at its pivot and
    zero at the pivots of the rows kept before it; over Z[sqrt d] its pivot
    is an int."""
    K = span.K
    for k, (row, col) in enumerate(zip(span.rows, span.pivots)):
        assert row[col] != K.zero and all(row[c] == K.zero for c in span.pivots[:k])
        assert K.divided(list(row)) == row
        if K is not exactlin._Z:
            assert row[col][1] == 0
    assert len(span.rows) == mat_rank(span.vectors) if span.vectors else not span.rows


@settings(max_examples=150, deadline=None)
@given(vector_families(), st.data())
def test_a_span_extended_in_batches_keeps_the_greedy_choice(family, data):
    # one span extended batch by batch, as the core walk extends it kernel by
    # kernel, keeps the vectors of one greedy loop over their concatenation;
    # a copy extends apart from it, as quotient_basis extends the core's span
    existing, new = family
    cuts = sorted(data.draw(st.lists(st.integers(0, len(new)), max_size=4)))
    batches = [new[a:b] for a, b in zip([0] + cuts, cuts + [len(new)])]
    span = exactlin.Span()
    span.extend(existing)
    kept = []
    for batch in batches:
        kept += span.extend(batch)
        assert_echelon(span)
    want = bareiss.basis_union(existing, new)
    assert typed(span.vectors) == typed(want) and typed(kept) == typed(want[len(existing):])
    first = exactlin.Span()
    first.extend(existing)
    head = first.extend(batches[0])
    rest = first.copy().extend(new[len(batches[0]):])
    assert typed(head + rest) == typed(kept) and typed(first.vectors) == typed(existing + head)


def test_a_span_lifts_its_rows_into_the_field_of_a_later_vector():
    # rational rows kept first are lifted to Z[sqrt d] when an entry of a
    # later vector lies in Q(sqrt d); sqrt 8 lies in the field of sqrt 2, sqrt -2 not
    F, r2, r8 = Fraction, QQi(0, 1, 2), QQi(0, 1, 8)
    batches = [[[F(1), F(1, 2), F(0)], [F(2), F(1), F(0)]],
               [[r2, F(1), F(0)], [r2, F(1), F(0)], [F(0), F(0), F(1, 3)]],
               [[r8, F(2), F(1)], [r2 + 1, F(3, 2), F(1)], [F(1), r8, F(0)]]]
    span = exactlin.Span()
    assert [len(span.extend(batch)) for batch in batches] == [1, 2, 0]
    assert span.K.d == 2 and span.vectors == [batches[0][0]] + batches[1][::2]
    assert span.vectors == bareiss.basis_union([], [v for batch in batches for v in batch])
    assert_echelon(span)
    with pytest.raises(PreconditionError,
                       match=r"values of Q\(sqrt 2\) and Q\(sqrt -2\) in one field"):
        span.extend([[QQi(0, 1, -2), F(0), F(0)]])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds(Fraction, st.integers(-2 ** 1024 + 2 ** 971, 2 ** 1024 - 2 ** 971 - 1),
              st.integers(1, 10 ** 6)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 2 ** 1080)),
    st.integers(2 ** 53, 2 ** 200).flatmap(lambda n: st.sampled_from([n, -n, n + 1]))))
def test_to_numpy_converts_exact_values_as_complex_does(x):
    """Fractions near either end of the float range, and ints past 2^53, take
    numerator / denominator, correctly rounded as complex(x) is."""
    assert exactlin.to_numpy([[x, -x]]).tobytes() == complex_array([[x, -x]]).tobytes()


@pytest.mark.parametrize("x", [
    Fraction(2 ** 1024 - 2 ** 970 - 1), Fraction(-(2 ** 1024 - 2 ** 970 - 1), 1),
    Fraction(1, 2 ** 1074), Fraction(3, 2 ** 1076), Fraction(1, 2 ** 1076), 2 ** 53 + 1,
    -(2 ** 64 + 2 ** 11 + 1), True, QQi(Fraction(1, 3), Fraction(-2, 7)), QQi(Fraction(5), 0),
    np.complex128(complex(-0.0, 1.5)), np.float64(-0.0), -0.0, complex(-0.0, -0.0), 0.1])
def test_to_numpy_matches_complex_entry_by_entry(x):
    assert exactlin.to_numpy([[x]]).tobytes() == complex_array([[x]]).tobytes()


numpy_entries = st.one_of(
    st.integers(-2 ** 1023, 2 ** 1023),
    st.builds(Fraction, st.integers(-2 ** 1024 + 2 ** 971, 2 ** 1024 - 2 ** 971 - 1),
              st.integers(1, 2 ** 80)),
    st.builds(QQi, rationals, rationals),
    st.floats(allow_nan=False), st.complex_numbers(allow_nan=False),
    st.sampled_from([-0.0, complex(-0.0, -0.0), np.float64(-0.0), np.complex128(1.5j), True]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda m: st.lists(st.lists(numpy_entries, min_size=m, max_size=m), min_size=1, max_size=4)))
def test_to_numpy_gives_the_bits_of_the_entrywise_conversion(M):
    """numpy converts a whole list as ``as_float`` converts each entry: ints
    past 2^53 correctly rounded, Fractions by their __float__, QQi by their
    __complex__, floats and signed zeros as they are."""
    assert exactlin.to_numpy(M).tobytes() == entrywise_array(M).tobytes()


def test_float_kernels_take_an_ndarray_as_it_is():
    A = np.array([[1, 2j], [0.5, 1j]], dtype=complex)
    assert exactlin.to_numpy(A) is A
    assert exactlin.svd_rank(A, 1e-9) == 1 and len(exactlin.nullspace_float(A, 1e-9)) == 1
    # no rows: the kernel is the whole space, of the array's width
    assert exactlin.nullspace_float(np.zeros((0, 3), dtype=complex), 1e-9) == \
        [list(row) for row in np.eye(3)]


def test_basis_union_float_and_mixed_input():
    e1, e2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    cands = [[2.0, 0.0, 0.0], [1.0, 1.0, 1e-12], [0.0, 0.0, 1.0], [1.0, 2.0, 3.0]]
    mode = float_mode(1e-9)
    assert span_union([e1], [e2] + cands, mode) == \
        bareiss.basis_union([e1], [e2] + cands, mode) == [e1, e2, [0.0, 0.0, 1.0]]
    mixed = [[Fraction(1), Fraction(0)], [0.5, 0.0], [Fraction(0), Fraction(1, 3)]]
    assert span_union([], mixed, mode) == bareiss.basis_union([], mixed, mode) == \
        [mixed[0], mixed[2]]
    # exact mode holds no float: float or mixed input is refused, by name
    for vectors, value in (([e1, e2] + cands, "1.0"), (mixed, "0.5")):
        for union in (span_union, bareiss.basis_union):
            with pytest.raises(PreconditionError, match=f"cannot hold the inexact value {value}$"):
                union([], vectors)


def test_exact_rank_refuses_a_float_entry():
    M = [[Fraction(1), Fraction(2)], [Fraction(1, 3), 0.25]]
    for decide in (mat_rank, mat_rank_exact, nullspace_exact, rref,
                   lambda M: exactlin.nullspace(M, EXACT)):
        with pytest.raises(PreconditionError,
                           match=r"^exact mode cannot hold the inexact value 0\.25$"):
            decide(M)
    assert mat_rank(M, float_mode(1e-9)) == 2


def test_arithmetic_across_two_fields_with_no_common_one_is_refused():
    r2, rm2 = QQi(0, 1, 2), QQi(0, 1, -2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        for a, b, names in ((r2, rm2, "Q\\(sqrt 2\\) and Q\\(sqrt -2\\)"),
                            (rm2, r2, "Q\\(sqrt -2\\) and Q\\(sqrt 2\\)")):
            with pytest.raises(PreconditionError,
                               match=f"^exact mode cannot hold values of {names} in one field$"):
                op(a, b)
    # fields with a common one compute exactly, and a float operand, as float
    # mode meets one, in complex floats
    assert r2 * QQi(0, 1, 8) == 4 and rm2 * QQi(0, 1, -8) == -4
    assert r2 * 0.5 == complex(r2) * 0.5


def test_exact_kernel_refuses_two_fields_with_no_common_one():
    # sqrt 2 and sqrt -2 lie in no one quadratic field; sqrt 2 and sqrt 8 do
    r2, r8, rm2 = QQi(0, 1, 2), QQi(0, 1, 8), QQi(0, 1, -2)
    assert mat_rank([[r2, Fraction(1)], [Fraction(4), r8]]) == 1
    with pytest.raises(PreconditionError,
                       match=r"values of Q\(sqrt 2\) and Q\(sqrt -2\) in one field"):
        mat_rank([[r2, Fraction(1)], [Fraction(0), rm2]])


def test_exact_basis_union_reads_its_pivots_without_rref(monkeypatch):
    # the greedy choice is the pivot columns of a forward elimination: no
    # reduced form is needed, over Z or over Z[i]
    rrefs = []
    real = exactlin.rref
    monkeypatch.setattr(exactlin, "rref", lambda M: rrefs.append(M) or real(M))
    F = Fraction
    existing = [[F(1, 2), F(0), F(1)]]
    new = [[F(1), F(0), F(2)], [F(0), F(1, 3), F(0)], [F(2), F(1), F(4)], [F(0), F(0), F(5)]]
    gaussian = [[QQi(1, 1), F(0), F(0)], [F(0), QQi(0, F(1, 2)), F(1)],
                [QQi(2, 2), QQi(0, 1), F(2)]]
    for old, cands in ((existing, new), ([], gaussian)):
        assert typed(span_union(old, cands)) == typed(bareiss.basis_union(old, cands))
    assert len(span_union(existing, new)) == 3 and len(span_union([], gaussian)) == 2
    assert rrefs == []


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def trimmed(p):
    return p[:_poly_degree(p) + 1]


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def carrier_scalars(exact):
    """int, Fraction and QQi values, or float and complex ones."""
    if exact:
        return st.one_of(st.integers(-6, 6), rationals, st.builds(QQi, rationals, rationals))
    floats = st.floats(-10, 10)
    return st.one_of(floats, st.builds(complex, floats, floats))


CARRIER_ZEROS = {True: [0, Fraction(0), QQi(0, 0)], False: [0, 0.0, 0j]}


@st.composite
def bilinear_arguments(draw):
    """(A, u, v), each of one carrier, exact or float, with zero rows and
    columns of A and zero entries of u and v planted."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    exact_a, exact_u, exact_v = (draw(st.booleans()) for _ in range(3))
    zero = {exact: draw(st.sampled_from(CARRIER_ZEROS[exact])) for exact in (True, False)}

    def vector(exact, size):
        return draw(st.lists(carrier_scalars(exact), min_size=size, max_size=size))

    def sparse_vector(exact, size):
        v = vector(exact, size)
        for i in draw(st.sets(st.integers(0, size - 1), max_size=size)):
            v[i] = zero[exact]
        return v

    A = [vector(exact_a, m) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        A[i] = [zero[exact_a]] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in A:
            row[j] = zero[exact_a]
    return A, sparse_vector(exact_u, n), sparse_vector(exact_v, m)


@settings(max_examples=100, deadline=None)
@given(bilinear_arguments())
def test_bilinear_matches_the_dense_sum(args):
    # the zero products it skips move neither an exact nor a float sum
    A, u, v = args
    assert bilinear(A, u, v) == vec_dot(u, mat_vec(A, v))


def test_claim_takes_the_first_unused_match_and_marks_it():
    items = [1, -2, 3, -4, 5]
    used = {1}
    assert claim(items, used, lambda x: x < 0) == -4 and used == {1, 3}
    assert claim(items, used, lambda x: x > 2) == 3 and used == {1, 2, 3}
    # no match: None, and nothing is marked
    assert claim(items, used, lambda x: x < 0) is None and used == {1, 2, 3}
    assert claim([], used, lambda x: True) is None and used == {1, 2, 3}


def test_near_compares_exact_values_exactly():
    assert not near(Fraction(1, 10 ** 30), 0, 1)
    assert not near(QQi(0, Fraction(1, 10 ** 30)), 0, 1)
    assert near(Fraction(1, 3), QQi(Fraction(2, 6), 0), 0)
    # one inexact value is enough for the tolerance
    assert near(Fraction(1, 10 ** 30), 0.0, 1e-20)
    assert near(QQi(1, 1), complex(1, 1 + 1e-12), 1e-9)
    assert near(1e-30, 0, 1e-20) and not near(1e-10, 0, 1e-20)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_poly_divmod_is_long_division(gaussian, data):
    # over a field: int coefficients would divide to floats
    coeff = entries(gaussian).map(lambda c: Fraction(c) if isinstance(c, int) else c)
    a = data.draw(st.lists(coeff, min_size=1, max_size=8))
    b = data.draw(st.lists(coeff, min_size=1, max_size=5))
    lead = data.draw(coeff.filter(lambda c: c != 0))
    b = b + [lead]                   # deg b = len(b) - 1 with a nonzero lead
    q, r = euclid.poly_divmod(a, b)
    assert trimmed(poly_add(poly_mul(q, b), r)) == trimmed(a)
    assert all(c == 0 for c in r) or _poly_degree(r) < len(b) - 1


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_poly_quotient_undoes_a_product_with_a_monic_divisor(gaussian, data):
    coeff = entries(gaussian).map(tidy)
    q = data.draw(st.lists(coeff, min_size=1, max_size=6).filter(lambda q: q[-1] != 0))
    g = data.draw(st.lists(coeff, max_size=4)) + [Fraction(1)]
    # normal-form coefficients, Fraction where real, as the reference gives
    got = _poly_quotient(poly_mul(q, g), g)
    assert typed(got) == typed(q) == typed(euclid.poly_divmod(poly_mul(q, g), g)[0])


def test_nullspace_annihilates_and_spans():
    M = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)]]
    ns = nullspace_exact(M)
    assert len(ns) == 2
    for v in ns:
        for row in M:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_and_inverse():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    x = coords_in_span(transpose(A), [[Fraction(3), Fraction(2)]])
    assert x == [[Fraction(1), Fraction(1)]]
    assert coords_in_span([[Fraction(1), Fraction(2)]], [[Fraction(1), Fraction(3)]]) is None
    assert mat_mul(A, solve(A, identity(2))) == identity(2)
    # an empty B, and singular ones; a float B is singular at the tolerance
    for mode in (EXACT, float_mode()):
        assert solve([], [], mode) == []
        assert solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], A, mode) is None
    nearly = [[1.0, 2.0], [2.0, 4.0 + 1e-12]]
    assert solve(nearly, identity(2), float_mode(1e-9)) is None
    assert solve(nearly, identity(2), float_mode(1e-14)) is not None


def test_float_solve_is_numpy_inverse_times_c():
    F = Fraction
    B = [[F(2), F(1, 3), F(0)], [F(-1), F(5, 7), F(3)], [F(1, 2), F(0), F(-4)]]
    C = [[F(1), QQi(2, 1)], [F(0), F(-3, 5)], [QQi(0, 1), F(7)]]
    inv = [list(row) for row in np.linalg.inv(exactlin.to_numpy(B))]
    expected = exactlin.to_numpy(mat_mul(inv, C))
    assert exactlin.to_numpy(solve(B, C, float_mode())).tobytes() == expected.tobytes()
    # exact input in exact mode: B^-1 C exactly
    assert mat_mul(B, solve(B, C)) == C


def test_tidy():
    F = Fraction
    cases = [(0, F(0)), (3, F(3)), (F(1, 2), F(1, 2)), (QQi(F(2, 3), 0), F(2, 3)),
             (QQi(1, -2), QQi(1, -2)), (-0.0, -0.0), (1.5, 1.5), (2 - 1j, 2 - 1j)]
    for x, expected in cases:
        assert typed(tidy(x)) == typed(expected)
    assert str(tidy(-0.0)) == "-0.0"


def test_coords_in_span():
    F = Fraction
    basis = [[F(1), F(0), F(1)], [F(0), F(1), F(0)]]
    inside, outside = [F(2), F(3), F(2)], [F(0), F(0), F(1)]
    assert coords_in_span(basis, [inside]) == [[F(2), F(3)]]
    assert coords_in_span(basis, [outside]) is None
    # several vectors in one elimination: all resolved, or None if any leaves
    assert coords_in_span(basis, [inside, [F(-1), F(1, 2), F(-1)], [F(0)] * 3]) == \
        [[F(2), F(3)], [F(-1), F(1, 2)], [F(0), F(0)]]
    assert coords_in_span(basis, [inside, outside, [F(1), F(1), F(1)]]) is None
    assert coords_in_span(basis, [outside, inside]) is None
    # float input is resolved by one least-squares solve, with the same verdicts
    mode = float_mode()
    assert coords_in_span(basis, [inside, outside], mode) is None
    got = coords_in_span(basis, [[2.0, 3.0, 2.0], [-1.0, 0.5, -1.0]], mode)
    assert [complex(x) for c in got for x in c] == pytest.approx([2, 3, -1, 0.5])
    assert coords_in_span([], [[F(0)] * 3]) == [[]]
    assert coords_in_span([], [[F(0), F(1)]]) is None


def test_float_coords_in_span_is_one_solve_of_all_vectors(monkeypatch):
    # float mode solves for every vector at once, each a column of one
    # least-squares problem: each column keeps its own residual rule, and its
    # coordinates are the bits of a solve of that vector alone
    mode = float_mode()
    rng = np.random.default_rng(44)
    basis = (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))).tolist()
    coefs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    inside = (coefs @ np.array(basis)).tolist()
    outside = (rng.standard_normal(7) + 1j * rng.standard_normal(7)).tolist()
    solves = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(a) or lstsq(*a, **k))
    got = coords_in_span(basis, inside, mode)
    assert len(solves) == 1 and solves[0][1].shape == (7, 5)
    A = np.array(basis).T
    for w, c, want in zip(inside, got, coefs):
        x, *_ = lstsq(A, np.array(w), rcond=None)
        assert np.asarray(c).tobytes() == x.tobytes()
        assert np.allclose(c, want)
    # one vector outside the span, amid vectors inside it, puts them all out
    assert coords_in_span(basis, inside[:2] + [outside] + inside[2:], mode) is None
    assert coords_in_span(basis, [], mode) == []
    assert len(solves) == 2


def test_coords_in_span_reads_an_echelon_basis_off_its_unit_columns(monkeypatch):
    # a kernel basis in echelon form has a unit column per vector: its
    # coordinates need no elimination, and each vector is still checked
    # against the whole basis; a scaled, mixed basis of the same span, one of
    # whose vectors has no unit column, takes one elimination beside all the
    # vectors
    F = Fraction
    ker = nullspace_exact([[F(1), F(2), F(0), F(-1)], [F(0), F(1), F(3), F(1, 2)]])
    mixed = [[F(3) * x + y for x, y in zip(ker[0], ker[1])], [F(-1, 2) * x for x in ker[1]]]
    inside = [F(2) * x - F(1, 3) * y for x, y in zip(ker[0], ker[1])]
    # on the unit columns of ker, outside agrees with inside
    outside = [x + (1 if j == 0 else 0) for j, x in enumerate(inside)]
    rrefs = []
    real = exactlin.rref
    monkeypatch.setattr(exactlin, "rref", lambda M: rrefs.append(M) or real(M))
    assert typed(coords_in_span(ker, [inside, [F(0)] * 4])) == \
        typed([[F(2), F(-1, 3)], [F(0), F(0)]])
    assert coords_in_span(ker, [inside, outside]) is None
    assert coords_in_span(ker, [outside]) is None
    assert rrefs == []
    assert typed(coords_in_span(mixed, [inside])) == typed([[F(2, 3), F(2)]])
    assert len(rrefs) == 1
    assert coords_in_span(mixed, [inside, outside]) is None
    assert len(rrefs) == 2


@st.composite
def echelon_spans(draw):
    """(basis, vectors) over Q, Q(i) or Q(sqrt 2): each basis row nonzero at
    its own unit column, where the other rows are zero, at an entry that
    need not be 1; vectors inside the span and vectors drawn at random, in
    any order, possibly none."""
    d = draw(st.sampled_from([0, -1, 2]))
    fractions = st.fractions(-3, 3, max_denominator=3)
    scalar = fractions if not d else st.builds(lambda a, b: tidy(QQi(a, b, d)), fractions,
                                               fractions)
    n = draw(st.integers(1, 5))
    units = sorted(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    basis = []
    for u in units:
        row = [Fraction(0) if j in units else draw(scalar) for j in range(n)]
        row[u] = draw(scalar.filter(lambda x: x != 0))
        basis.append(row)
    combos = draw(st.lists(st.lists(scalar, min_size=len(units), max_size=len(units)),
                           max_size=3))
    inside = [[tidy(sum(c * b[j] for c, b in zip(cs, basis))) for j in range(n)]
              for cs in combos]
    outside = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=2))
    return basis, draw(st.permutations(inside + outside))


@settings(max_examples=150, deadline=None)
@given(echelon_spans())
def test_coords_in_span_reads_echelon_bases_as_their_reduced_form_does(case):
    # the unit-column read-off over Z, Z[i] and Z[sqrt 2] gives the values,
    # the types and the None of one reduced row echelon form beside the basis
    basis, vectors = case
    assert typed(coords_in_span(basis, vectors)) == typed(eigensplit.span_coords(basis, vectors))
    assert coords_in_span(basis, []) == [] == eigensplit.span_coords(basis, [])


def test_char_poly_roots_and_multiplicity():
    # rotation generator: x^2 + 1
    cp = char_poly([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    assert cp == [Fraction(1), Fraction(0), Fraction(1)]
    roots = poly_roots_hybrid(cp)
    assert all(isinstance(r, QQi) for r, _ in roots)
    assert {str(r) for r, _ in roots} == {"(0+1i)", "(0-1i)"}

    # (x - 1)^2 (x + 2): multiplicity recovered exactly
    p = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    roots = poly_roots_hybrid(p)
    assert {(str(r), m) for r, m in roots} == {("1", 2), ("-2", 1)}

    # an irrational pair of a quadratic factor over Q is exact, in Q(sqrt 2),
    # and its float is within 2 ulp of the root's
    roots = poly_roots_hybrid([Fraction(-2), Fraction(0), Fraction(1)])
    assert [m for _, m in roots] == [1, 1]
    assert all(isinstance(z, QQi) and z * z == 2 for z, _ in roots)
    for (z, _), sign in zip(sorted(roots, key=lambda r: complex(r[0]).real), (-1, 1)):
        assert abs(complex(z) - sign * math.sqrt(2)) <= 2 * math.ulp(math.sqrt(2))

    # x^2 + 12: the pair +-2 sqrt(-3), exact in Q(sqrt -3)
    roots = poly_roots_hybrid([Fraction(12), Fraction(0), Fraction(1)])
    assert [m for _, m in roots] == [1, 1] and all(z * z == -12 for z, _ in roots)
    assert sorted(complex(z).imag for z, _ in roots) == [-2 * math.sqrt(3), 2 * math.sqrt(3)]

    # x^2 - 8 against 2 sqrt 2 from x^2 - 2: equal, and equal in a hash, also
    # where sqrt 8 is written in the field of d = 8, with no factoring of 8
    (z8, _), _ = poly_roots_hybrid([Fraction(-8), Fraction(0), Fraction(1)])
    (z2, _), _ = poly_roots_hybrid([Fraction(-2), Fraction(0), Fraction(1)])
    for root8 in (z8, QQi(0, 1, 8)):
        assert root8 == 2 * z2 and hash(root8) == hash(2 * z2) and len({root8, 2 * z2}) == 1
        assert root8 != -2 * z2 and root8 != 2 * z2 + 1 and root8 * z2 == 4

    # a linear factor over Q(sqrt 2) gives its root exactly; a quadratic one
    # over Q(sqrt 2), whatever its roots, is refused, by its degree and field
    r2 = QQi(0, 1, 2)
    assert poly_roots_hybrid([-r2 - 1, Fraction(1)]) == [(r2 + 1, 1)]
    with pytest.raises(PreconditionError,
                       match=r"exact mode cannot hold the roots of a factor of degree 2 "
                             r"over Q\(sqrt 2\)$"):
        poly_roots_hybrid(poly_mul([-r2, Fraction(1)], [Fraction(-1), Fraction(1)]))

    # so is a quadratic over Q(i) with no Gaussian-rational root
    with pytest.raises(PreconditionError, match=r"factor of degree 2 over Q\(i\)$"):
        poly_roots_hybrid([QQi(1, 1), Fraction(0), Fraction(1)])

    # 907/908 lies within 1e-7 of 15418/15435 but is no root; the root itself
    # must come back exact
    assert poly_roots_hybrid([-Fraction(15418, 15435), Fraction(1)]) == \
        [(Fraction(15418, 15435), 1)]

    # (x-1)^2 (x-11267/11250)^4 (x-15418/15435)^2, from a Jordan-Kronecker
    # pencil: a float solver puts the clustered roots about 1e-10 off, where
    # no small-denominator fraction near them is a root; the roots are found
    # exactly, whatever their neighbours
    roots = {Fraction(1): 2, Fraction(11267, 11250): 4, Fraction(15418, 15435): 2}
    p = [Fraction(1)]
    for r, m in roots.items():
        for _ in range(m):
            p = [a - r * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    got = poly_roots_hybrid(p)
    assert all(isinstance(r, Fraction) for r, _ in got) and dict(got) == roots


SHIFT_SQUAREFREE = json.loads((Path(__file__).parent / "fixtures" /
                               "shift_squarefree.json").read_text())


@pytest.mark.parametrize("case", sorted(SHIFT_SQUAREFREE))
def test_every_root_of_the_sl_n_squarefree_parts_is_exact(case):
    # written by tools/root_fixtures.py: the squarefree part of the recursion
    # operator's characteristic polynomial at a shift_case point, of degree 21
    # to 29, whose roots are all rational (b0) or Gaussian rational (b1)
    f = [Fraction(c) for c in SHIFT_SQUAREFREE[case]]
    roots, cofactor = gaussian_rational_roots(f)
    assert len(set(roots)) == len(roots) == len(f) - 1 and cofactor == [1]
    assert all(poly_eval(f, z) == 0 for z in roots)
    assert any(isinstance(z, QQi) for z in roots) == (".b1." in case)


# x^3 - x - 1, x^2 - 2 and x^2 + 2: no root in Q(i), one or three real roots
NO_GAUSSIAN_ROOT = [[Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)],
                    [Fraction(-2), Fraction(0), Fraction(1)],
                    [Fraction(2), Fraction(0), Fraction(1)]]
tall = st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(tall, tall | st.just(Fraction(0))), max_size=6, unique=True),
       st.sampled_from(NO_GAUSSIAN_ROOT),
       st.sampled_from([Fraction(1), Fraction(-7, 3), QQi(2, 5)]))
def test_planted_gaussian_rational_roots_are_found_exactly(parts, rest, lead):
    planted = [tidy(QQi(re, im)) for re, im in parts]
    f = [lead * c for c in rest]
    for z in planted:
        f = poly_mul(f, [-z, Fraction(1)])
    roots, cofactor = gaussian_rational_roots([tidy(c) for c in f])
    assert len(roots) == len(planted) and set(roots) == set(planted)
    assert cofactor == [tidy(lead * c) for c in rest]


# the first primes p = 1 (mod 4) above 10^4, which the root search takes in turn
SEARCH_PRIMES = (10009, 10037, 10061, 10069, 10093)


@st.composite
def rational_quadratics(draw):
    """A squarefree quadratic over Q whose roots lie in Q, in Q(i) but not Q,
    or in neither, as Fractions; its leading coefficient and the gap between
    its roots are multiplied by products of ``SEARCH_PRIMES``, so that the
    cleared leading coefficient or discriminant rules some of them out."""
    kind = draw(st.sampled_from(["Q", "Q(i)", "neither"]))
    primes = st.lists(st.sampled_from(SEARCH_PRIMES), max_size=3).map(math.prod)
    nonzero = rationals.filter(bool)
    lead, u = draw(nonzero) * draw(primes), draw(rationals)
    gap = draw(nonzero) * draw(primes)
    # roots u +- gap sqrt(m): m = 1 rational, m = -1 Gaussian, else neither
    m = {"Q": 1, "Q(i)": -1}.get(kind) or draw(st.sampled_from([2, 3, -2, -3, 6, -7]))
    return kind, [lead * (u * u - m * gap * gap), -2 * lead * u, lead]


@settings(max_examples=200, deadline=None)
@given(rational_quadratics())
def test_a_rational_quadratic_has_the_roots_and_order_of_the_p_adic_path(case):
    # the closed form over Q takes the p-adic path's prime and square root
    # of -1, and so lists the same roots in the same order, of the same types
    kind, f = case
    roots, cofactor = gaussian_rational_roots(f)
    want = padic.gaussian_rational_roots(f)
    assert typed(roots) == typed(want[0]) and typed(cofactor) == typed(want[1])
    assert len(roots) == (0 if kind == "neither" else 2)
    assert all(isinstance(z, Fraction) for z in roots) == (kind != "Q(i)")


@pytest.mark.parametrize("f, prime", [
    # 10009 (x^2 - 1): 10009 divides the leading coefficient
    ([Fraction(-10009), Fraction(0), Fraction(10009)], 10037),
    # roots +-10009 i / 2: 10009 divides the discriminant
    ([Fraction(10009 ** 2, 4), Fraction(0), Fraction(1)], 10037),
    # roots 1 +- 10037: 10037 divides the discriminant, 10009 neither
    ([Fraction(1 - 10037 ** 2), Fraction(-2), Fraction(1)], 10009),
    # 10009 10037 (x - 1/3 +- 10061 i): the first three ruled out
    ([10009 * 10037 * (Fraction(1, 9) + 10061 ** 2), Fraction(-2 * 10009 * 10037, 3),
      Fraction(10009 * 10037)], 10069)])
def test_the_root_order_follows_the_first_prime_that_divides_neither(f, prime):
    # the two roots are sorted by their residues mod that prime, i -> s
    roots, _ = gaussian_rational_roots(f)
    assert roots == padic.gaussian_rational_roots(f)[0] and len(roots) == 2
    s = next(s for s in (pow(c, (prime - 1) // 4, prime) for c in itertools.count(2))
             if s * s % prime == prime - 1)

    def residue(z):
        return sum(x.numerator * pow(x.denominator, -1, prime) * t
                   for x, t in zip((creal(z), cimag(z)), (1, s))) % prime
    assert residue(roots[0]) < residue(roots[1])
    assert all(poly_eval(f, z) == 0 for z in roots)


@pytest.mark.parametrize("f", [
    # -(x - 9)^2 / 4: the closed form's discriminant is zero
    [Fraction(-81, 4), Fraction(9, 2), Fraction(-1, 4)],
    # (x - 1)^2 (x + 2) and (x - i)^2: 1 and i are double roots mod every prime
    [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)],
    [Fraction(-1), QQi(0, -2), Fraction(1)]], ids=["closed-form", "cubic", "gaussian"])
def test_a_repeated_root_is_refused(f):
    for roots_of in (gaussian_rational_roots, exactlin.exact_roots):
        with pytest.raises(PreconditionError, match="repeated root"):
            roots_of(f)


def test_roots_that_meet_mod_the_first_prime_are_lifted_at_the_next():
    # x (x - 10009) (x - 1) has the double root 0 mod 10009, but it is
    # squarefree: the gcd with its derivative is 1, and 10037 separates them
    f = poly_mul(poly_mul([Fraction(0), Fraction(1)], [Fraction(-10009), Fraction(1)]),
                 [Fraction(-1), Fraction(1)])
    roots, cofactor = gaussian_rational_roots(f)
    assert sorted(roots) == [0, 1, 10009] and cofactor == [1]


def test_close_irrational_pairs_keep_their_multiplicities_and_bits():
    # (x^2 - c)^2 (x^2 - c')^k with c' 10^-6 or 10^-4 above c: two close
    # irrational pairs, whose roots a float solver on the whole squarefree
    # part resolves only to about the square root of the working precision;
    # each Yun factor's own roots are exact, z^2 = c, with its exponent, and
    # their floats within 2 ulp of the true square roots
    for c, gap, exponents in ((3, Fraction(1, 10 ** 6), (2, 3)),
                              (2, Fraction(1, 10 ** 4), (2, 1))):
        consts = (Fraction(c), c + gap)
        p = product_of_powers([[-k, Fraction(0), Fraction(1)] for k in consts], exponents)
        roots = poly_roots_hybrid(p)
        assert len(roots) == 4 and all(isinstance(z, QQi) for z, _ in roots)
        for k, e in zip(consts, exponents):
            assert sorted(m for z, m in roots if z * z == k) == [e, e], (c, k)
            with localcontext() as ctx:
                ctx.prec = 50
                true = float((Decimal(k.numerator) / Decimal(k.denominator)).sqrt())
            for sign in (1, -1):
                assert [m for z, m in roots
                        if abs(complex(z) - sign * true) <= 2 * math.ulp(true)] == [e], (c, sign)


def test_poly_gcd_and_squarefree():
    # p = (x-1)^2 (x+3)
    p = [Fraction(3), Fraction(-5), Fraction(1), Fraction(1)]
    sf = squarefree_decomposition(p)[0]
    assert poly_eval(sf, Fraction(1)) == 0 and poly_eval(sf, Fraction(-3)) == 0
    assert len(sf) == 3  # degree dropped from 3 to 2
    g = poly_gcd_exact(p, [Fraction(-1), Fraction(1)])  # gcd with (x-1)
    assert g == [Fraction(-1), Fraction(1)]


# x - 1/3, x - (1 + 2i), x^2 - 2, x^2 - 2 - 10^-4 and x^3 - x - 1: rational,
# Gaussian, two close irrational pairs and a cubic with one real and two
# complex irrational roots
ROOT_FACTORS = [[Fraction(-1, 3), Fraction(1)], [QQi(-1, -2), Fraction(1)],
                [Fraction(-2), Fraction(0), Fraction(1)],
                [-2 - Fraction(1, 10 ** 4), Fraction(0), Fraction(1)],
                [Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)]]


def product_of_powers(factors, exponents):
    p = [Fraction(1)]
    for f, e in zip(factors, exponents):
        for _ in range(e):
            p = poly_mul(p, f)
    return p


def refused_degree(exponents):
    """The degree of the first Yun factor, by exponent, whose roots exact mode
    cannot hold: the product of the nonlinear ``ROOT_FACTORS`` of that
    exponent, unless it is one quadratic over Q; None when there is none."""
    for e in sorted({e for e in exponents if e}):
        degree = sum(len(f) - 1 for f, x in zip(ROOT_FACTORS, exponents) if x == e and len(f) > 2)
        if degree > 2:
            return degree
    return None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(ROOT_FACTORS), max_size=len(ROOT_FACTORS))
       .filter(any))
def test_root_multiplicities_are_the_exponents_of_their_factors(exponents):
    # the cubic x^3 - x - 1, or the two quadratics at one exponent, leave a
    # cofactor of degree 3 or more, which exact mode refuses
    p = product_of_powers(ROOT_FACTORS, exponents)
    degree = refused_degree(exponents)
    if degree is not None:
        with pytest.raises(PreconditionError, match=f"factor of degree {degree} over Q$"):
            poly_roots_hybrid(p)
        return
    roots = poly_roots_hybrid(p)
    assert sum(m for _, m in roots) == len(p) - 1
    for z, m in roots:
        # the factor the root belongs to, by the smallest value there
        owner = min(range(len(ROOT_FACTORS)),
                    key=lambda k: abs(poly_eval([complex(c) for c in ROOT_FACTORS[k]],
                                                complex(z))))
        assert exponents[owner] and m == exponents[owner], (z, exponents)
        assert poly_eval(ROOT_FACTORS[owner], z) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(ROOT_FACTORS), max_size=len(ROOT_FACTORS)),
       st.sampled_from([Fraction(1), Fraction(-5, 2), QQi(1, 1)]))
def test_squarefree_decomposition_multiplies_back(exponents, lead):
    p = [tidy(lead * c) for c in product_of_powers(ROOT_FACTORS, exponents)]
    sf, factors = squarefree_decomposition(p)
    assert [i for _, i in factors] == sorted({e for e in exponents if e})
    back = [Fraction(1)]
    for f, i in factors:
        assert f[-1] == 1 and len(f) > 1
        back = poly_mul(back, product_of_powers([f], [i]))
    assert [tidy(lead * c) for c in back] == p
    for (f, _), (g, _) in itertools.combinations(factors, 2):
        assert poly_gcd_exact(f, g) == [Fraction(1)]
    # each factor and the squarefree part are squarefree, and the f_i multiply to it
    for f in [sf] + [f for f, _ in factors]:
        assert len(poly_gcd_exact(f, exactlin.poly_deriv(f))) == 1
    prod = [Fraction(1)]
    for f, _ in factors:
        prod = poly_mul(prod, f)
    assert [tidy(sf[-1] * c) for c in prod] == [tidy(c) for c in sf]


def high_coefficients(gaussian, least=0):
    """Fractions, or Gaussian rationals, whose numerators and denominators
    reach 2^68, in normal form (``tidy``); with ``least`` the numerator of
    the real part is at least that in size."""
    num = st.integers(least, 2 ** 68).flatmap(lambda a: st.sampled_from([a, -a]))
    real = st.builds(Fraction, num, st.integers(1, 2 ** 68))
    part = st.builds(Fraction, st.integers(-2 ** 68, 2 ** 68), st.integers(1, 2 ** 68))
    return st.builds(lambda re, im: tidy(QQi(re, im)), real, part) if gaussian else real


@st.composite
def factored_pairs(draw):
    """(p, q): products of powers of factors from one pool, each of height
    2^60 or more, sharing some; or a zero, constant or squarefree polynomial
    against such a product.  Over Q(i) the factors are fewer and the powers
    lower, as the field reference slows down fast with the degree."""
    gaussian = draw(st.booleans())
    coeff = high_coefficients(gaussian)
    lead = draw(coeff.filter(lambda c: c != 0))
    factor = st.builds(lambda c0, rest, top: [c0] + rest + [top],
                       high_coefficients(gaussian, 2 ** 60), st.lists(coeff, max_size=1),
                       coeff.filter(lambda c: c != 0))
    pool = draw(st.lists(factor, min_size=1, max_size=2 if gaussian else 3))
    top = 2 if gaussian else 3

    def product(exponents):
        p = [lead]
        for f, e in zip(pool, exponents):
            for _ in range(e):
                p = [tidy(c) for c in poly_mul(p, f)]
        return p

    exponents = st.lists(st.integers(0, top), min_size=len(pool), max_size=len(pool))
    kind = draw(st.sampled_from(["zero", "constant", "squarefree", "powers"]))
    p = {"zero": [Fraction(0)], "constant": [lead],
         "squarefree": product([1] * len(pool)), "powers": product(draw(exponents))}[kind]
    return p, product(draw(exponents))


def typed_decomposition(sf_factors):
    sf, factors = sf_factors
    return typed(sf), [(typed(f), i) for f, i in factors]


@settings(max_examples=60, deadline=None)
@given(factored_pairs())
def test_carrier_gcd_and_squarefree_decomposition_match_euclid_over_the_field(pair):
    # a monic gcd and an exact quotient are unique: the primitive remainder
    # sequence on Z or Z[i] gives the field's values, of the same types
    p, q = pair
    for a, b in ((p, q), (q, p), (p, exactlin.poly_deriv(p)), (p, [Fraction(0)]),
                 ([Fraction(0)], q)):
        assert typed(poly_gcd_exact(a, b)) == typed(euclid.poly_gcd(a, b))
    for a in (p, q):
        assert typed_decomposition(squarefree_decomposition(a)) == \
            typed_decomposition(euclid.squarefree_decomposition(a))


def test_float_mode_takes_float_eigenvalues_of_an_exact_matrix():
    # one exact-or-float rule: eigenvalues, like ranks and kernels, are exact
    # only when the mode is exact and every entry is
    M = [[Fraction(0), Fraction(-1), Fraction(0)], [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1, 3)]]
    exact_eigs, float_eigs = eigenvalues(M, float_mode())
    assert exact_eigs == [] and [m for _, m in float_eigs] == [1, 1, 1]
    assert sorted((round(z.real, 9), round(z.imag, 9)) for z, _ in float_eigs) == \
        [(0.0, -1.0), (0.0, 1.0), (0.333333333, 0.0)]
    assert eigenvalues(M, EXACT)[1] == []


def test_format_scalar_prints_no_negative_zero():
    assert math.copysign(1, format_scalar(-0.0)) == 1
    z = format_scalar(complex(-0.0, -1.5))
    assert z == {"re": 0.0, "im": -1.5} and math.copysign(1, z["re"]) == 1
    assert math.copysign(1, format_scalar(complex(2.0, -0.0))) == 1


def test_float_rank_threshold():
    fm = float_mode(1e-9)
    M = [[1.0, 0.0], [0.0, 1e-15]]
    assert mat_rank(M, fm) == 1
    warnings = []
    M2 = [[1.0, 0.0], [0.0, 5e-9]]
    mat_rank(M2, fm, warnings)
    assert warnings  # borderline decision flagged


def test_qqi_field_axioms():
    a = QQi(Fraction(1, 2), Fraction(-3))
    b = QQi(Fraction(2), Fraction(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert a.conjugate().conjugate() == a
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        a / QQi(0, 0)


heights = st.integers(-10 ** 12, 10 ** 12)
quadratic = st.builds(lambda a, q, b, r: (Fraction(a, q), Fraction(b, r)), heights,
                      st.integers(1, 10 ** 12), heights, st.integers(1, 10 ** 12))


def decimal_value(a, b, d):
    """a + b sqrt(d) for d > 0, to 50 digits."""
    def dec(x):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return dec(a) + dec(b) * Decimal(d).sqrt()


@settings(max_examples=200, deadline=None)
@given(quadratic, quadratic, st.integers(2, 10 ** 12).filter(lambda d: math.isqrt(d) ** 2 != d))
def test_real_quadratic_sign_and_arithmetic_agree_with_decimal(x, y, d):
    # Q(sqrt d) against 50-digit Decimal at heights up to 10^12: the exact
    # sign, the order, the float, and +, -, * and / all agree
    with localcontext() as ctx:
        ctx.prec = 50
        u, v = QQi(*x, d), QQi(*y, d)
        du, dv = decimal_value(*x, d), decimal_value(*y, d)
        if u.im:                      # b = 0 leaves Q(sqrt d)
            assert u.sign() == (du > 0) - (du < 0)
            assert (u < v) == (du < dv) and (u > v) == (du > dv)
            assert abs(Decimal(complex(u).real) - du) <= abs(du) * Decimal(2) ** -52
        for got, want in ((u + v, du + dv), (u - v, du - dv), (u * v, du * dv)) + (
                ((u / v, du / dv),) if v else ()):
            assert abs(decimal_value(got.re, got.im, d) - want) <= (abs(want) + 1) * Decimal(10) ** -30


def test_qqi_float_and_complex_operands_give_complex():
    a = QQi(Fraction(1, 2), Fraction(-3))
    za = complex(a)
    for x in (0.25, -1.5 + 2j):
        got = [a + x, x + a, a - x, x - a, a * x, x * a, a / x, x / a]
        want = [za + x, x + za, za - x, x - za, za * x, x * za, za / x, x / za]
        assert all(type(g) is complex for g in got)
        assert got == want


def test_cleared_rows_are_primitive():
    F = Fraction
    assert exactlin._Z.clear([F(2, 3), F(4, 3)]) == [1, 2]
    assert exactlin._Z.clear([F(-6), F(0), F(9, 2)]) == [-4, 0, 3]
    assert exactlin._Z.clear([F(0), F(0)]) == [0, 0]
    assert exactlin._Z.clear([]) == []
