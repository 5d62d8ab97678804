"""The joint eigen-split of a commuting family on Fraction / QQi entries.

The reference for ``roots.joint_eigenvectors`` in exact mode, which splits on
carrier ints over one denominator.  Here every operator is split as it is:
its eigenvalues are ``exactlin.eigenvalues``, each eigenspace is the
pivot-normalized kernel of M - val I (``exactlin.nullspace``), and each later
operator is restricted to a joint eigenspace by resolving its images in the
span by one reduced row echelon form (``exactlin.rref``), all in exact
scalar arithmetic: no unit-column read-off (``exactlin.read_off``), which
the code under test uses.
"""

from __future__ import annotations

from fractions import Fraction

from bipencil.errors import ToleranceError
from bipencil.exactlin import eigenvalues, mat_mul, mat_vec, nullspace, rref, shift, transpose
from bipencil.scalars import tidy


def span_coords(basis, vectors):
    """Coordinates of each of ``vectors`` in span(basis), a nonempty
    independent basis, or None if one is outside: one reduced row echelon
    form of the basis columns beside all the vectors, where a pivot in a
    vector's column puts it outside the span."""
    m = len(basis)
    R, pivots = rref(transpose(list(basis) + list(vectors)))
    if any(c >= m for c in pivots):
        return None
    rows = dict(zip(pivots, R))
    return [[rows[c][m + t] if c in rows else Fraction(0) for c in range(m)]
            for t in range(len(vectors))]


def restrict(A, basis):
    """Matrix of the operator A on the invariant span(basis), or None when an
    image A b leaves that span; all images are resolved in one ``span_coords``."""
    coords = span_coords(basis, [mat_vec(A, b) for b in basis])
    return None if coords is None else transpose(coords)


def eigenspaces(M):
    """(eigenvalue, Ker(M - eigenvalue I)) per distinct exact eigenvalue, or
    None when M is not diagonalizable over C."""
    eigs, _ = eigenvalues(M)
    if sum(mult for _, mult in eigs) != len(M):
        return None
    split = []
    for val, mult in eigs:
        sub = nullspace(shift(M, val))
        if len(sub) != mult:
            return None
        split.append((val, sub))
    return split


def joint_eigenvectors(mats):
    """(eigtuple, basis) per maximal joint eigenspace of the commuting exact
    family ``mats``, or None when an operator is not semisimple."""
    items = [((), None)]
    for A in mats:
        new_items = []
        for eigs, basis in items:
            R = A if basis is None else restrict(A, basis)
            if R is None:
                raise ToleranceError("operator failed to preserve an invariant subspace")
            split = eigenspaces(R)
            if split is None:
                return None
            for val, sub in split:
                vecs = sub if basis is None else [[tidy(v) for v in row]
                                                  for row in mat_mul(sub, basis)]
                new_items.append((eigs + (val,), vecs))
        items = new_items
    return items
