"""The joint eigen-split of a commuting family on Fraction / QQi entries.

The reference for ``roots.joint_eigenvectors`` in exact mode, which splits on
carrier ints over one denominator.  Here every operator is split as it is:
its eigenvalues are ``exactlin.eigenvalues``, each eigenspace is the
pivot-normalized kernel of M - val I (``exactlin.nullspace``), and each later
operator is restricted to a joint eigenspace by resolving its images in the
span (``exactlin.coords_in_span``), all in exact scalar arithmetic.
"""

from __future__ import annotations

from bipencil.errors import ToleranceError
from bipencil.exactlin import (coords_in_span, eigenvalues, mat_mul, mat_vec, nullspace, shift,
                               transpose)
from bipencil.scalars import EXACT, Mode, tidy


def restrict(A, basis, mode: Mode = EXACT):
    """Matrix of the operator A on the invariant span(basis), or None when an
    image A b leaves that span; all images are resolved in one call."""
    coords = coords_in_span(basis, [mat_vec(A, b) for b in basis], mode)
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
