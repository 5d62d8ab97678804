import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil import exactlin
from bipencil.exactlin import (_poly_degree, _poly_divmod, basis_union, bilinear,
                               char_poly, coords_in_span, eigenvalues, identity, mat_mul,
                               mat_rank, mat_rank_exact, mat_vec, nullspace_exact,
                               nullspace_mod_p, poly_eval, poly_gcd_exact, poly_roots_hybrid,
                               residues, rref, solve, span_mod_p, squarefree_decomposition,
                               transpose)
from bipencil.scalars import EXACT, QQi, float_mode, format_scalar, near, tidy

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


# -- the F_p carrier ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(exact_matrices(), st.sampled_from([2, 3, 7, exactlin.PRIME]))
def test_ranks_mod_p_never_exceed_the_rational_ranks(M, prime):
    M = [[x.re if isinstance(x, QQi) else x for x in row] for row in M]
    with mock.patch.object(exactlin, "PRIME", prime):
        if any(Fraction(x).denominator % prime == 0 for row in M for x in row):
            for f in (span_mod_p, nullspace_mod_p):
                with pytest.raises(ValueError):
                    f(M)
            return
        rank = len(span_mod_p(M))
        assert rank <= mat_rank_exact(M)
        ker = [residues(v) for v in nullspace_mod_p(M)]
        assert len(ker) == len(M[0]) - rank
        R = [residues(row) for row in M]
        assert all(sum(a * x for a, x in zip(row, v)) % prime == 0 for row in R for v in ker)
        assert len(span_mod_p(ker)) == len(ker)


def test_a_rank_that_drops_mod_p_proves_nothing():
    P = exactlin.PRIME
    M = [[Fraction(0), Fraction(P)], [Fraction(-P), Fraction(0)]]
    assert span_mod_p(M) == [] and mat_rank_exact(M) == 2
    assert len(nullspace_mod_p(M)) == 2 and nullspace_exact(M) == []
    # nor does a float entry, such as a float point's in float mode
    for bad in ([[Fraction(1, P)]], [[QQi(Fraction(1), Fraction(1))]], [[0.5]], [[1j]]):
        with pytest.raises(ValueError):
            span_mod_p(bad)


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


def test_char_poly_of_float_entries_is_the_float_recursion():
    M = [[0.5, 1], [2, 0.25]]
    assert typed(char_poly(M)) == typed(oracle_char_poly(M))


def oracle_basis_union(existing, new_vectors, mode=EXACT):
    """Oracle: the greedy loop, one rank of the whole family per candidate."""
    out = [list(v) for v in existing]
    for v in new_vectors:
        cand = out + [list(v)]
        if mat_rank(cand, mode) == len(cand):
            out.append(list(v))
    return out


@st.composite
def vector_families(draw):
    """(existing, new): an independent family and candidates of the same
    length with zero vectors, duplicates and dependent combinations planted,
    entries int, Fraction or QQi with mixed denominators."""
    entry = entries(draw(st.booleans()))
    m = draw(st.integers(1, 6))
    vector = st.lists(entry, min_size=m, max_size=m)
    existing = oracle_basis_union([], draw(st.lists(vector, max_size=3)))
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
    assert typed(basis_union(existing, new)) == typed(oracle_basis_union(existing, new))


def test_basis_union_float_and_mixed_input():
    e1, e2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    cands = [[2.0, 0.0, 0.0], [1.0, 1.0, 1e-12], [0.0, 0.0, 1.0], [1.0, 2.0, 3.0]]
    for mode in (EXACT, float_mode(1e-9)):
        assert basis_union([e1], [e2] + cands, mode) == \
            oracle_basis_union([e1], [e2] + cands, mode) == [e1, e2, [0.0, 0.0, 1.0]]
    mixed = [[Fraction(1), Fraction(0)], [0.5, 0.0], [Fraction(0), Fraction(1, 3)]]
    assert basis_union([], mixed) == oracle_basis_union([], mixed) == [mixed[0], mixed[2]]


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
    q, r = _poly_divmod(a, b)
    assert trimmed(poly_add(poly_mul(q, b), r)) == trimmed(a)
    assert all(c == 0 for c in r) or _poly_degree(r) < len(b) - 1


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
    # float input is resolved vector by vector with the same verdicts
    mode = float_mode()
    assert coords_in_span(basis, [inside, outside], mode) is None
    got = coords_in_span(basis, [[2.0, 3.0, 2.0], [-1.0, 0.5, -1.0]], mode)
    assert [complex(x) for c in got for x in c] == pytest.approx([2, 3, -1, 0.5])
    assert coords_in_span([], [[F(0)] * 3]) == [[]]
    assert coords_in_span([], [[F(0), F(1)]]) is None


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

    # irrational pair stays float, Newton-polished
    roots = poly_roots_hybrid([Fraction(-2), Fraction(0), Fraction(1)])
    assert all(type(z) is complex for z, _ in roots)
    assert sorted(round(abs(z), 9) for z, _ in roots) == [1.414213562] * 2

    # 907/908 lies within the snap tolerance of 15418/15435 but is no root;
    # the larger convergent is, and must come back exact
    assert poly_roots_hybrid([-Fraction(15418, 15435), Fraction(1)]) == \
        [(Fraction(15418, 15435), 1)]

    # (x-1)^2 (x-11267/11250)^4 (x-15418/15435)^2, from a Jordan-Kronecker
    # pencil: the clustered roots come back from the float solver about 1e-10
    # off, where the fixed snap ladder finds only wrong fractions; the
    # continued-fraction convergents still reach both roots
    roots = {Fraction(1): 2, Fraction(11267, 11250): 4, Fraction(15418, 15435): 2}
    p = [Fraction(1)]
    for r, m in roots.items():
        for _ in range(m):
            p = [a - r * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    got = poly_roots_hybrid(p)
    assert all(isinstance(r, Fraction) for r, _ in got) and dict(got) == roots


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


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(ROOT_FACTORS), max_size=len(ROOT_FACTORS))
       .filter(any))
def test_root_multiplicities_are_the_exponents_of_their_factors(exponents):
    p = product_of_powers(ROOT_FACTORS, exponents)
    roots = poly_roots_hybrid(p)
    assert sum(m for _, m in roots) == len(p) - 1
    for z, m in roots:
        # the factor the root belongs to, by the smallest value there
        owner = min(range(len(ROOT_FACTORS)),
                    key=lambda k: abs(poly_eval([complex(c) for c in ROOT_FACTORS[k]],
                                                complex(z))))
        assert exponents[owner] and m == exponents[owner], (z, exponents)
        if len(ROOT_FACTORS[owner]) == 2:
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
