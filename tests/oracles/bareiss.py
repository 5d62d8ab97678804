"""Bareiss forward elimination and fraction-free Gauss-Jordan over Z.

The reference for ``exactlin``'s elimination over Z, which divides each
updated row by its content instead of by the previous pivot.  Here, at a pivot p
in column col (previous pivot prev, 1 at the start), each row below the pivot
row becomes (p * row - row[col] * pivot_row) / prev, the forward elimination
of Bareiss (1968), whose entries are minors, so the division is exact; with
``reduce`` the rows above are updated the same way at each pivot, which is
fraction-free Gauss-Jordan.  Each row of the library lies on the line of the
row here with the same index, so the pivots agree, and the library's rows,
primitive, are entrywise no larger.

On QQi entries the same steps divide in the field.  ``rank`` counts the
pivots of exact rows, and ``basis_union`` is the greedy loop on it, one rank
of the whole family per candidate: the reference for the library's spans.
``kernel_rows`` reads the kernel of a library ``Elimination`` off the
fraction-free Gauss-Jordan form of its forward rows: the reference for
``Elimination.kernel_rows`` on both carriers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from bipencil.exactlin import mat_rank, scalar_matrix
from bipencil.scalars import EXACT, QQi, quadratic_field


def _divide(a, b):
    """a / b, exact: ints by floor division, QQi in the field."""
    return a // b if type(a) is int else a / b


def combine(p, f, prev, row, prow):
    """(p * row - f * prow) / prev, entrywise; the division is exact."""
    if not f:
        return [_divide(p * a, prev) for a in row] if p != prev else row
    return [_divide(p * a - f * b, prev) for a, b in zip(row, prow)]


def bareiss(rows, reduce: bool):
    """(rows, pivots) of the integer ``rows``, eliminated in a copy: forward,
    or with ``reduce`` fraction-free Gauss-Jordan."""
    A = [list(row) for row in rows]
    n, m = len(A), len(A[0]) if A else 0
    pivots = []
    prev = 1
    for col in range(m):
        k = len(pivots)
        piv = next((r for r in range(k, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[k], A[piv] = A[piv], A[k]
        prow = A[k]
        p = prow[col]
        for r in range(k + 1, n):
            A[r][col:] = combine(p, A[r][col], prev, A[r][col:], prow[col:])
        if reduce:
            for r in range(k):
                A[r] = combine(p, A[r][col], prev, A[r], prow)
        prev = p
        pivots.append(col)
        if len(pivots) == n:
            break
    return A, pivots


def _rational(x):
    return Fraction(x.re if isinstance(x, QQi) and not x.im else x)


def rank(rows):
    """The number of pivots of ``bareiss`` on exact rows: rational rows times
    the lcm of their denominators, as ints, else as QQi and Fraction entries."""
    if any(isinstance(x, QQi) and x.im for row in rows for x in row):
        rows = [[x if isinstance(x, QQi) else Fraction(x) for x in row] for row in rows]
        return len(bareiss(rows, reduce=False)[1])
    ints = []
    for row in rows:
        row = [_rational(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * lcm) for x in row])
    return len(bareiss(ints, reduce=False)[1])


def basis_union(existing, new_vectors, mode=EXACT):
    """The greedy loop: each candidate is kept when the family with it has
    full rank, ``rank`` in exact mode, which first refuses what the library
    refuses (``quadratic_field``), and ``mat_rank`` in float mode."""
    out = [list(v) for v in existing]
    if mode.is_exact:
        quadratic_field(x for v in out + [list(v) for v in new_vectors] for x in v)
    for v in new_vectors:
        cand = out + [list(v)]
        if (rank(cand) if mode.is_exact else mat_rank(cand, mode)) == len(cand):
            out.append(list(v))
    return out


def kernel_rows(e):
    """(rows, free) of the ``Elimination`` e, read off the fraction-free
    Gauss-Jordan form (``bareiss`` with ``reduce``) of its forward rows as
    Fraction and QQi entries: the line at free column fc is 1 there and
    -row[fc] / row[pc] at the pivot column pc of each reduced row, cleared
    and over the gcd of its coordinates (``K.clear``, ``K.divided``)."""
    K, pivots = e.K, e.pivots
    reduced, _ = bareiss(scalar_matrix(K, e.rows[:e.rank]), reduce=True)
    free = [c for c in range(e.width) if c not in pivots]
    rows = []
    for fc in free:
        v = [Fraction(0)] * e.width
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] / row[pc]
        rows.append(K.divided(K.clear(v)))
    return rows, free
