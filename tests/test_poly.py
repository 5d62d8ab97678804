from fractions import Fraction

from bipencil.poly import Poly

from oracles.fields import degree, gradient, hessian, shift


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
    assert q.diff(2) == 2 * z * x
    assert q.diff(1).is_zero()
    assert q.eval([Fraction(2), Fraction(0), Fraction(5)]) == 2 * 25 + 6
    # float evaluation
    assert abs(q.eval([0.5, 0.0, 2.0]) - (2.0 + 1.5)) < 1e-12


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
