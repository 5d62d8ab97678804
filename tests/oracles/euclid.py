"""Polynomial gcd and squarefree decomposition by Euclid over the field.

The references for ``exactlin.poly_gcd_exact``, which runs a primitive
pseudo-remainder sequence on the integer carriers, and for
``exactlin.squarefree_decomposition``, which divides by its monic gcds
without a division.  Here every step is long division on Fraction / QQi
coefficients, put in normal form by ``tidy``.  A monic gcd and an exact
quotient are unique, so the library must give the same values, of the same
types.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bipencil.exactlin import _poly_degree, poly_deriv
from bipencil.scalars import tidy


def poly_divmod(a, b):
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


def poly_gcd(a, b):
    """Monic gcd over Q(i) by Euclid's algorithm; [1] when both are zero."""
    a = list(a[:_poly_degree(a) + 1])
    b = list(b[:_poly_degree(b) + 1])
    while any(c != 0 for c in b):
        a, b = b, poly_divmod(a, b)[1]
        b = b[:_poly_degree(b) + 1]
    lead = a[-1]
    if lead == 0:
        return [Fraction(1)]
    return [tidy(c / lead) for c in a]


def squarefree_decomposition(coeffs):
    """(sf, [(f_i, i)]) by Yun's algorithm, on ``poly_gcd`` and ``poly_divmod``."""
    g = poly_gcd(coeffs, poly_deriv(coeffs))
    sf = list(coeffs) if _poly_degree(g) == 0 else poly_divmod(coeffs, g)[0]
    b, c = sf, poly_divmod(poly_deriv(coeffs), g)[0]
    factors = []
    i = 1
    while _poly_degree(b) > 0:
        d = [tidy(x - y) for x, y in
             itertools.zip_longest(c, poly_deriv(b), fillvalue=Fraction(0))]
        f = poly_gcd(b, d)
        if _poly_degree(f) > 0:
            factors.append((f, i))
        b, c = poly_divmod(b, f)[0], poly_divmod(d, f)[0]
        i += 1
    return sf, factors
