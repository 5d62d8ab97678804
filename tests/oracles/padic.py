"""The Gaussian-rational roots of a polynomial by p-adic lifting, at every degree.

The reference for ``exactlin.gaussian_rational_roots`` on a quadratic over
Q, which it solves by the discriminant and sorts by residue mod p.  Here the
quadratic takes the p-adic path that every other degree takes: the roots of
the cleared f mod p from one evaluation at every residue, in their order mod
p, lifted by Newton's doubling and read off the Gaussian lattice of norm q
(Loos, SIAM J. Comput. 1983; von zur Gathen-Gerhard, Modern Computer
Algebra, 15.4).  The prime is the first p = 1 (mod 4) above 10^4 with p not
dividing N(lc) at which every root of f mod p is simple, and s the first
c^((p - 1) / 4), c = 2, 3, ..., with s^2 = -1 mod p.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bipencil.exactlin import _ZD, _eval_mod, _poly_degree, _poly_quotient, poly_deriv, poly_eval
from bipencil.scalars import tidy


def gaussian_rational_roots(f):
    """(roots, cofactor): the roots in Q(i) of a squarefree f over Q or Q(i),
    in their order mod p, and f divided by their linear factors."""
    f = f[:_poly_degree(f) + 1]
    if len(f) <= 2:
        return ([tidy(-f[0] / f[1])], f[1:]) if len(f) == 2 else ([], f)
    K = _ZD(-1)
    a = K.clear(f)
    lc = a[-1]
    norm_lc = lc[0] ** 2 + lc[1] ** 2
    bound = (math.isqrt(norm_lc) + math.isqrt(max(x * x + y * y for x, y in a)) + 2) ** 2
    for p in itertools.count(10 ** 4 + 1, 4):
        if norm_lc % p and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            s = next(s for s in (pow(c, (p - 1) // 4, p) for c in itertools.count(2))
                     if s * s % p == p - 1)
            c = [(x + y * s) % p for x, y in a]
            roots = np.flatnonzero(_eval_mod(c, np.arange(p, dtype=np.int64), p) == 0)
            if np.all(_eval_mod(poly_deriv(c), roots, p)):
                break
    roots, q = [int(r) for r in roots], p
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
