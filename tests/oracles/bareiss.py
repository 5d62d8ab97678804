"""Bareiss forward elimination and fraction-free Gauss-Jordan over Z.

The reference for ``exactlin``'s elimination over Z, which divides each
updated row by its content instead of by the previous pivot and
back-substitutes its reduced rows from the forward ones.  Here, at a pivot p
in column col (previous pivot prev, 1 at the start), each row below the pivot
row becomes (p * row - row[col] * pivot_row) / prev, the forward elimination
of Bareiss (1968), whose entries are minors, so the division is exact; with
``reduce`` the rows above are updated the same way at each pivot, which is
fraction-free Gauss-Jordan.  Each row of the library lies on the line of the
row here with the same index, so the pivots agree, and the library's rows,
primitive, are entrywise no larger.
"""

from __future__ import annotations


def combine(p, f, prev, row, prow):
    """(p * row - f * prow) / prev, entrywise; the division is exact."""
    if not f:
        return [p * a // prev for a in row] if p != prev else row
    return [(p * a - f * b) // prev for a, b in zip(row, prow)]


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
