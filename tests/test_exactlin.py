import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil.exactlin import (char_poly, coords_in_span, identity,
                               inverse_exact, mat_mul, mat_rank, mat_rank_exact,
                               nullspace_exact, poly_deflate, poly_eval,
                               poly_gcd_exact, poly_roots_hybrid,
                               poly_squarefree_part, solve_exact,
                               symmetric_signature)
from bipencil.scalars import EXACT, QQi, float_mode

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
    x = solve_exact(A, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(1)]
    assert solve_exact([[Fraction(1)], [Fraction(2)]], [Fraction(1), Fraction(3)]) is None
    assert mat_mul(A, inverse_exact(A)) == identity(2)


def test_coords_in_span():
    basis = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(0)]]
    c = coords_in_span(basis, [Fraction(2), Fraction(3), Fraction(2)])
    assert c == [Fraction(2), Fraction(3)]
    assert coords_in_span(basis, [Fraction(0), Fraction(0), Fraction(1)]) is None


def test_char_poly_roots_and_multiplicity():
    # rotation generator: x^2 + 1
    cp = char_poly([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    assert cp == [Fraction(1), Fraction(0), Fraction(1)]
    ex, fl = poly_roots_hybrid(cp)
    assert not fl and {str(r) for r, _ in ex} == {"(0+1i)", "(0-1i)"}

    # (x - 1)^2 (x + 2): multiplicity recovered exactly
    p = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    ex, fl = poly_roots_hybrid(p)
    assert {(str(r), m) for r, m in ex} == {("1", 2), ("-2", 1)}

    # irrational pair goes to the float channel, Newton-polished
    ex, fl = poly_roots_hybrid([Fraction(-2), Fraction(0), Fraction(1)])
    assert ex == [] and sorted(round(abs(z), 9) for z, _ in fl) == [1.414213562] * 2

    # 907/908 lies within the snap tolerance of 15418/15435 but is no root;
    # the larger convergent is, and must come back exact
    ex, fl = poly_roots_hybrid([-Fraction(15418, 15435), Fraction(1)])
    assert ex == [(Fraction(15418, 15435), 1)] and fl == []

    # (x-1)^2 (x-11267/11250)^4 (x-15418/15435)^2, from a Jordan-Kronecker
    # pencil: the clustered roots come back from the float solver about 1e-10
    # off, where the fixed snap ladder finds only wrong fractions; the
    # continued-fraction convergents still reach both roots
    roots = {Fraction(1): 2, Fraction(11267, 11250): 4, Fraction(15418, 15435): 2}
    p = [Fraction(1)]
    for r, m in roots.items():
        for _ in range(m):
            p = [a - r * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    ex, fl = poly_roots_hybrid(p)
    assert dict(ex) == roots and fl == []


def test_poly_gcd_and_squarefree():
    # p = (x-1)^2 (x+3)
    p = [Fraction(3), Fraction(-5), Fraction(1), Fraction(1)]
    sf = poly_squarefree_part(p)
    assert poly_eval(sf, Fraction(1)) == 0 and poly_eval(sf, Fraction(-3)) == 0
    assert len(sf) == 3  # degree dropped from 3 to 2
    g = poly_gcd_exact(p, [Fraction(-1), Fraction(1)])  # gcd with (x-1)
    assert g == [Fraction(-1), Fraction(1)]


def test_poly_deflate():
    p = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]  # (x-1)(x-2)(x-3)
    q, rem = poly_deflate(p, Fraction(2))
    assert rem == 0
    assert poly_eval(q, Fraction(1)) == 0 and poly_eval(q, Fraction(3)) == 0


def test_float_rank_threshold():
    fm = float_mode(1e-9)
    M = [[1.0, 0.0], [0.0, 1e-15]]
    assert mat_rank(M, fm) == 1
    warnings = []
    M2 = [[1.0, 0.0], [0.0, 5e-9]]
    mat_rank(M2, fm, warnings)
    assert warnings  # borderline decision flagged


def test_symmetric_signature():
    assert symmetric_signature([[Fraction(2)]]) == (1, 0, 0)
    assert symmetric_signature([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == (1, 1, 0)
    S = [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(-3), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    assert symmetric_signature(S) == (1, 1, 1)


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
