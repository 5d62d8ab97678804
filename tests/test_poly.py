from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil.catalog import catalog
from bipencil.errors import NonRationalPointError
from bipencil.poly import Poly
from bipencil.scalars import QQi
from bipencil.toda import make_singular_point, toda_pencil

from oracles.fields import degree, diff, gradient, hessian, shift, term_sum


def test_ring_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (p * 0).is_zero()
    assert p + 1 == Poly.constant(2, 1) + x * x - y * y


def test_diff_and_eval():
    x = Poly.variable(3, 0)
    z = Poly.variable(3, 2)
    q = z * z * x + x * 3
    assert diff(q, 2) == 2 * z * x
    assert diff(q, 1).is_zero()
    assert q.eval([Fraction(2), Fraction(0), Fraction(5)]) == 2 * 25 + 6


def test_gradient_hessian():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    q = x * x * y
    g = gradient(q)
    assert g[0] == 2 * x * y and g[1] == x * x
    h = hessian(q)
    assert h[0][0] == 2 * y and h[0][1] == 2 * x and h[1][1].is_zero()
    assert h[0][1] == h[1][0]


def test_shift_is_translation():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    q = x * x + x * y
    s = shift(q, [Fraction(1), Fraction(-2)])
    for pt in ([Fraction(0), Fraction(0)], [Fraction(3), Fraction(1, 2)]):
        assert s.eval(pt) == q.eval([pt[0] + 1, pt[1] - 2])


def test_degree_and_zero():
    assert degree(Poly.zero(3)) == 0
    assert degree(Poly.monomial(3, (1, 2, 0))) == 3


# ---------------------------------------------------------------------------
# values and first derivatives on ints equal their definitions
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
coordinates = st.one_of(st.integers(-9, 9), rationals)


def polys(nvars):
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(monomials, rationals, max_size=6).map(lambda t: Poly(nvars, t))


def same(value, expected):
    """Equal with the type of the definition, a Fraction."""
    return type(value) is type(expected) and repr(value) == repr(expected)


def assert_definitions(q, point):
    assert same(q.eval(point), term_sum(q, point))
    partials = q.partials(point)
    assert sorted(partials) == [k for k in range(q.nvars) if any(m[k] for m in q.terms)]
    for k, value in partials.items():
        assert same(value, term_sum(diff(q, k), point)), k


@settings(max_examples=200, deadline=None)
@given(polys(3), st.lists(coordinates, min_size=3, max_size=3))
def test_values_and_partials_on_ints_are_the_term_sums(q, point):
    assert_definitions(q, point)


@settings(max_examples=100, deadline=None)
@given(polys(3), st.lists(st.one_of(coordinates, st.floats(-10, 10),
                                    st.complex_numbers(max_magnitude=10),
                                    st.builds(QQi, rationals, rationals, st.sampled_from([-1, 2]))),
                          min_size=3, max_size=3)
       .filter(lambda point: not all(isinstance(x, (int, Fraction)) for x in point)))
def test_values_and_partials_at_a_point_off_q_are_refused(q, point):
    # a coordinate that is not an int or a Fraction is refused, a constant's
    # and an irrational one's included
    for evaluate in (q.eval, q.partials):
        with pytest.raises(NonRationalPointError):
            evaluate(point)


def test_zero_and_constants_evaluate_to_their_fraction():
    point = [Fraction(-3, 4), 5, Fraction(7, 6)]
    for c in (0, 1, -2, Fraction(-5, 9)):
        q = Poly.constant(3, c)
        assert same(q.eval(point), Fraction(c)) and q.partials(point) == {}
        assert_definitions(q, point)
    assert same(Poly.zero(2).eval([Fraction(1, 3), -1]), Fraction(0))


def test_a_constant_at_a_rational_point_is_its_coefficient():
    c = Fraction(-5, 9)
    q = Poly(3, {(0, 0, 0): c})
    assert q.terms[(0, 0, 0)] is c
    assert q.eval([Fraction(-3, 4), 5, Fraction(7, 6)]) is c


def assert_field_definitions(f, point):
    """values_at and derivatives_at of ``f`` at ``point`` are the term sums of
    each entry and of its derivative, over the entries containing x_k."""
    values, derivatives = f.values_at(point), f.derivatives_at(point)
    assert values.keys() == f.upper_entries().keys()
    for ij, p in f.upper_entries().items():
        assert same(values[ij], term_sum(p, point)), ij
        for k in range(f.dim):
            assert (ij in derivatives[k]) == any(m[k] for m in p.terms), (ij, k)
            if ij in derivatives[k]:
                assert same(derivatives[k][ij], term_sum(diff(p, k), point)), (ij, k)


def test_catalog_pencils_evaluate_to_their_definitions():
    for e in catalog():
        for f in (e.field0, e.field_inf):
            assert_field_definitions(f, e.point)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_singular_toda_points_evaluate_to_their_definitions(n):
    point = make_singular_point(n, seed=1).coordinates()
    assert len({x.denominator for x in point}) > 1 and min(point) < 0
    for f in toda_pencil(n):
        assert_field_definitions(f, point)
