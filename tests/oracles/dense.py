"""Dense references for the sparse contractions and float conversions of the library.

``bilinear`` is u^T A v over a dense matrix, the sum that
``tensorfield.gram`` contracts over nonzero cells alone and must reproduce
value for value on exact input.  On float input ``gram_rounding_errors``
bounds it instead: against the exact value of the same float inputs, a
float value of ``gram`` is within the rounding bound of its two dot
products and its cells, whatever the order of its sums.  ``complex_array``
converts every entry by complex(), the reference bits for
``exactlin.to_numpy`` and ``PencilAtPoint.float_matrix_at``, which convert
each exact value once.
``entrywise_array`` is the conversion ``to_numpy`` made before it handed
whole lists to numpy: each entry by ``exactlin.as_float``, then numpy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from bipencil.exactlin import as_float
from bipencil.scalars import QQi, is_inf, tidy

UNIT_ROUNDOFF = 2.0 ** -53


def complex_array(M):
    """M as a complex ndarray, each entry converted by complex()."""
    return np.array([[complex(x) for x in row] for row in M], dtype=complex)


def entrywise_array(M):
    """M as a complex ndarray, each entry first converted by ``as_float``."""
    return np.array([[as_float(x) for x in row] for row in M], dtype=complex)


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


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): n roundings of unit roundoff u, chained."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def as_read(x):
    """x as the complex float that float mode reads (``exactlin.to_numpy``'s
    conversion), given as its exact value: a Fraction, or a QQi over Q(i)."""
    z = complex(x)
    return tidy(QQi(Fraction(z.real), Fraction(z.imag))) if z.imag else Fraction(z.real)


def gram_rounding_errors(dim, matrices, lam, basis, pairs, got):
    """(error, bound) per value of ``got``, ``tensorfield.gram``'s float values
    for these arguments, per matrix and pair.

    The error is |got - s| for s = u^T M v on the exact values of the float
    inputs (``as_read``), M = A0 + lambda Ainf (Ainf at INF).  The bound is
    gamma_n * sum_ij |u_i| (|a0| + |lambda| |ainf|)_ij |v_j|, n = 2 dim + 2
    for real data: two dot products of length dim, after at most two
    roundings of each cell, a product and a sum, in any order of the sums.
    For complex data, each component of a complex product-sum is a real sum
    of twice the terms, and a modulus is at most sqrt 2 times the larger
    component, so the bound is sqrt 2 gamma_2n.  A product may also
    underflow, by at most 2^-1075 a component, and is then multiplied by at
    most two more factors: the bound adds 4 * 2^-1074 dim^2 (1 + U + U^2),
    U the largest |u_i|, for the dim^2 products of each of the cells and
    the two dot products.  Both are compared exactly, squared, as Fractions.
    """
    lam_x = None if is_inf(lam) else as_read(lam)
    vecs = [[as_read(x) for x in u] for u in basis]
    data = [lam_x] + [x for u in vecs for x in u] + \
        [as_read(x) for entries in matrices for _, _, *pair in entries for x in pair]
    real = not any(isinstance(x, QQi) for x in data)
    n = 2 * dim + 2
    factor = gamma(n) if real else 2 ** 0.5 * gamma(2 * n)
    U = max([abs(complex(x)) for u in vecs for x in u], default=0.0)
    underflow = Fraction(4 * dim ** 2) * Fraction(2) ** -1074 * Fraction(1 + U + U * U)
    out = []
    for entries, values in zip(matrices, got):
        cells = []
        for i, j, a0, ainf in entries:
            a0, ainf = as_read(a0), as_read(ainf)
            cell = ainf if lam_x is None else a0 + lam_x * ainf
            size = abs(complex(ainf)) if lam_x is None else \
                abs(complex(a0)) + abs(complex(lam_x)) * abs(complex(ainf))
            cells += [(i, j, cell, size), (j, i, -cell, size)]
        for (u, v), value in zip(pairs, values):
            s = sum((vecs[u][i] * c * vecs[v][j] for i, j, c, _ in cells), Fraction(0))
            size = sum(abs(complex(vecs[u][i])) * m * abs(complex(vecs[v][j]))
                       for i, j, _, m in cells)
            diff = as_read(value) - s
            err2 = (diff.re ** 2 + diff.im ** 2) if isinstance(diff, QQi) else diff ** 2
            out.append((err2, (Fraction(factor * size) + underflow) ** 2))
    return out
