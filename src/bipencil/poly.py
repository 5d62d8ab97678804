"""Sparse multivariate polynomials with exact rational coefficients.

Only the operations the pencil machinery needs: ring arithmetic, and the
values and first partial derivatives at exact or floating points.  A Fraction
coefficient and a tuple exponent are stored as they are given.  At a point
in Q both are summed on ints: the point is cleared once, to ints X over one
denominator Q (``cleared``), the terms are summed as one int over the lcm of
their denominators, and each value is made a Fraction once, at the end; a
constant's value there is its coefficient.  At any other point, float,
complex or in a quadratic field, the terms are multiplied out and added one
by one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import is_exact_scalar


def cleared(point):
    """(X, Q): the ints X = Q * point, Q > 0 the lcm of the coordinates'
    denominators, for a point in Q; (point, None) for any other point."""
    if all(isinstance(x, (int, Fraction)) for x in point):
        Q = math.lcm(*(x.denominator for x in point))
        return [x.numerator * (Q // x.denominator) for x in point], Q
    return point, None


def _term_sum(terms, point, xq):
    """The sum of e * c * x^m over (m, c, e) in ``terms`` at ``point``, whose
    ``cleared`` form is ``xq``.  At a point X / Q in Q each term is the int
    e * c.numerator * X^m over c.denominator * Q^|m|, and the sum is one int
    over the lcm of those denominators, made a Fraction at the end.  Elsewhere
    each term is multiplied out from e * c, or its float, and added in turn,
    so that a float keeps its bits."""
    X, Q = xq
    if Q is not None:
        num, den = 0, 1
        for m, c, e in terms:
            d = c.denominator * Q ** sum(m)
            g = math.gcd(den, d)
            num = num * (d // g) + e * c.numerator * math.prod(map(pow, X, m)) * (den // g)
            den = den // g * d
        return Fraction(num, den)
    exact = all(is_exact_scalar(x) for x in point)
    total = Fraction(0) if exact else 0.0
    for mono, c, e in terms:
        term = c * e if exact else float(c * e)
        for x, n in zip(point, mono):
            for _ in range(n):
                term = term * x
        total = total + term
    return total


class Poly:
    """Polynomial in ``nvars`` variables, stored as {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[mono if type(mono) is tuple else tuple(mono)] = c

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents, c=1) -> "Poly":
        return cls(nvars, {tuple(exponents): Fraction(c)})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial arity mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- values and first derivatives -----------------------------------------
    def eval(self, point, xq=None):
        """The value at ``point``, exact at an exact point, and a constant's
        coefficient at a point in Q; ``xq`` is ``cleared(point)``, made once
        by a caller that evaluates many polynomials at one point."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        xq = xq or cleared(point)
        if xq[1] is not None and len(self.terms) == 1:
            (mono, c), = self.terms.items()
            if not any(mono):
                return c
        return _term_sum([(m, c, 1) for m, c in self.terms.items()], point, xq)

    def partials(self, point, xq=None):
        """{k: d/dx_k at ``point``} over the variables x_k that occur, each
        summed straight from the terms as c * m_k * x^(m - e_k), as ``eval``."""
        lowered = {}
        for mono, c in self.terms.items():
            for k, e in enumerate(mono):
                if e:
                    lowered.setdefault(k, []).append((mono[:k] + (e - 1,) + mono[k + 1:], c, e))
        xq = xq or cleared(point)
        return {k: _term_sum(terms, point, xq) for k, terms in lowered.items()}
