"""Root decomposition of a linear pencil and the elementary-block classifier.

The kernel of the cocycle acts on the algebra by commuting operators; when
those are all semisimple the complexified algebra splits into joint
eigenspaces, by ``joint_eigenvectors``; a split that fails is the one
source of ``AdNotSemisimple``, and a non-Abelian kernel is
``KernelNotAbelian``.  Exact, the split runs on carrier ints over one
denominator, and values become Fraction / QQi only where they leave it: the
roots, read off the monic characteristic polynomial of each restriction, and
the root vectors.  For h in Ker A the cocycle identity gives
(alpha + beta)(h) A(y, z) = 0 on g_alpha x g_beta, so each nonzero root space
pairs with its negative at equal dimension, and non-degeneracy asks only for
a zero root space equal to Ker A and independent roots, one per root vector:
every other failure is ``RootsDependent``.  The surviving pencils are
recognized as sums of elementary blocks (the so(3), sl(2) and diamond
families) modulo a central ideal and an Abelian summand.

``analyze_linear`` is the one per-lambda analysis: root decomposition, then
non-degeneracy, then the blocks.  The Williamson type is read off the blocks,
each of which is elliptic, hyperbolic or focus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError
from .exactlin import (clear_matrix, coords_in_span, eigen_split, eigenspaces, identity, join,
                       lift, mat_rank, restrict, scalar_matrix, to_numpy, transpose)
from .liealg import COMPLEX, REAL, CocycleKernel, LinearPencil, kernel_of_cocycle
from .scalars import EXACT, Mode, cimag, claim, conj, creal, is_exact_scalar, near, tidy


@dataclass
class RootPair:
    """A +/- pair of roots with their (lifted) root vectors in the algebra."""

    root: tuple              # values of the + root on the kernel basis
    vec_plus: list
    vec_minus: list

    def reality(self, mode: Mode = EXACT) -> str:
        """'real', 'imaginary', 'complex', or 'zero' (as a functional)."""
        scale = max([abs(complex(v)) for v in self.root] + [1.0])
        tol = 10 * mode.tol * scale
        if all(near(v, 0, tol) for v in self.root):
            return "zero"
        if all(near(cimag(v), 0, tol) for v in self.root):
            return "real"
        if all(near(creal(v), 0, tol) for v in self.root):
            return "imaginary"
        return "complex"


@dataclass
class RootData:
    kernel_basis: list
    pairs: list
    residual: str | None = None      # KernelNotAbelian, AdNotSemisimple or None
    zero_extra_dim: int = 0          # joint zero-eigenspace beyond Ker A
    field: str = REAL


@dataclass
class WilliamsonType:
    ke: int = 0
    kh: int = 0
    kf: int = 0

    def __add__(self, other: "WilliamsonType") -> "WilliamsonType":
        return WilliamsonType(self.ke + other.ke, self.kh + other.kh, self.kf + other.kf)

    def to_json_dict(self):
        return {"ke": self.ke, "kh": self.kh, "kf": self.kf}


@dataclass
class BlockDecomposition:
    counts: dict = field(default_factory=lambda: {
        "so3": 0, "sl2_pos_killing": 0, "sl2_neg_killing": 0,
        "so3C": 0, "diamond": 0, "diamond_h": 0, "diamond_C": 0})
    abelian_dim: int = 0
    central_ideal_dim: int = 0

    _REAL_DIMS = {"so3": 3, "sl2_pos_killing": 3, "sl2_neg_killing": 3,
                  "so3C": 6, "diamond": 4, "diamond_h": 4, "diamond_C": 8}
    _COMPLEX_DIMS = {"so3C": 3, "diamond_C": 4}

    def williamson_type(self) -> WilliamsonType:
        """so3, sl2 with negative Killing form and diamond blocks are elliptic;
        sl2 with positive Killing form and diamond_h hyperbolic; so3C and
        diamond_C focus."""
        c = self.counts
        return WilliamsonType(ke=c["so3"] + c["sl2_neg_killing"] + c["diamond"],
                              kh=c["sl2_pos_killing"] + c["diamond_h"],
                              kf=c["so3C"] + c["diamond_C"])

    def block_dim_total(self, field_name: str) -> int:
        dims = self._REAL_DIMS if field_name == REAL else self._COMPLEX_DIMS
        return sum(dims.get(name, 0) * n for name, n in self.counts.items())

    def to_json_dict(self):
        return {"counts": {k: v for k, v in sorted(self.counts.items())},
                "abelian_dim": self.abelian_dim,
                "central_ideal_dim": self.central_ideal_dim}


@dataclass
class LinearAnalysis:
    """Root data, the degeneracy reason (None when non-degenerate) and, for a
    non-degenerate pencil, its blocks and the type read off them."""

    data: RootData
    reason: str | None
    blocks: BlockDecomposition | None = None

    @property
    def type(self) -> WilliamsonType | None:
        return None if self.blocks is None else self.blocks.williamson_type()


# ---------------------------------------------------------------------------
# joint eigendecomposition of the commuting kernel action
# ---------------------------------------------------------------------------


def joint_eigenvectors(mats, mode: Mode = EXACT, rows=None):
    """Split the ambient space by the commuting family: a list of (eigtuple,
    vectors), or None when some operator is not semisimple.

    Each item is a maximal joint eigenspace: the tuple of eigenvalues (one per
    operator) and a basis of the space.  The first operator is split as it
    is, on the standard basis, and each later one is restricted to the joint
    eigenspaces of those before it.  A commuting family preserves the joint
    eigenspaces of the operators before it, so an image that leaves its span
    raises ToleranceError.  The family must not be empty: its one joint
    eigenspace would be the whole space, whose dimension an empty family
    does not give.

    Exact mode splits on carrier ints: each operator is the carrier rows
    (K, M, D) of D times it, ``rows`` (``liealg.CocycleKernel.ad_rows``) or
    else its ``exactlin.clear_matrix``; each joint eigenspace's basis is
    primitive carrier rows, each nonzero at a unit column, and each
    restriction is read off integer images (``exactlin.restrict``) and split
    by ``exactlin.eigen_split``, which takes the roots of the monic
    characteristic polynomial of the restriction itself: the eigenvalues and
    their order are those of a split on Fractions, and each basis spans the
    same space, made Fraction / QQi vectors on the way out.  Float mode
    splits by ``exactlin.eigenspaces`` in floats, even where it is exact, on
    complex arrays: each basis is the rows of one, each restriction is
    resolved from the images basis A^T by one ``coords_in_span``, and each
    split is mapped back by one product with the basis.
    """
    if mode.is_exact:
        return _joint_eigenvectors_exact(rows or [clear_matrix(A) for A in mats])
    items = [((), None)]
    for A in map(to_numpy, mats):
        new_items = []
        for (eigs, basis) in items:
            R = A if basis is None else coords_in_span(basis, basis @ A.T, mode)
            if R is None:
                raise ToleranceError("operator failed to preserve an invariant subspace")
            split = eigenspaces(R if basis is None else np.transpose(R), mode)
            if split is None:
                return None
            for val, sub in split:
                sub = np.array(sub)
                new_items.append((eigs + (val,), sub if basis is None else sub @ basis))
        items = new_items
    return [(eigs, basis.tolist()) for eigs, basis in items]


def _joint_eigenvectors_exact(cleared):
    items = [((), None, None, None)]      # eigenvalues, carrier, basis rows, unit columns
    for KA, A, s in cleared:
        new_items = []
        for eigs, K, basis, units in items:
            if basis is None:
                K, M, D = KA, A, s
            else:
                K = join(K, KA)
                R = restrict(K, lift(K, A), lift(K, basis), units)
                if R is None:
                    raise ToleranceError("operator failed to preserve an invariant subspace")
                M, D = R[0], R[1] * s
            split = eigen_split(K, M, D)
            if split is None:
                return None
            for val, e in split:
                rows, free = e.kernel_rows
                if basis is not None:
                    cols = transpose(lift(e.K, basis))
                    rows = [e.K.divided([e.K.dot(v, col) for col in cols]) for v in rows]
                    free = [units[f] for f in free]
                new_items.append((eigs + (val,), e.K, rows, free))
        items = new_items
    return [(eigs, scalar_matrix(K, rows)) for eigs, K, rows, _ in items]


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------


def root_decomposition(lp: LinearPencil, mode: Mode = EXACT,
                       kernel: CocycleKernel | None = None) -> RootData:
    """Simultaneously diagonalize the kernel action and pair the roots.

    A non-Abelian kernel or a non-semisimple generator is recorded in
    ``residual``.  Otherwise each nonzero root space is paired with that of
    its negative, one ``RootPair`` per vector, so a k-dimensional root space
    gives k equal roots.  The cocycle identity makes the partner exist at
    equal dimension: a missing or unequal one raises ToleranceError.
    """
    if kernel is None:
        kernel = kernel_of_cocycle(lp, mode)
    data = RootData(kernel_basis=kernel.basis, pairs=[], field=lp.algebra.field)
    if not kernel.abelian:
        data.residual = "KernelNotAbelian"
        return data
    items = (joint_eigenvectors(kernel.ad, mode, kernel.ad_rows) if kernel.ad
             else [((), identity(lp.algebra.dim))])
    if items is None:
        data.residual = "AdNotSemisimple"
        return data

    c = len(kernel.basis)
    zero_items = []
    nonzero = []
    for eigs, vecs in items:
        pair = RootPair(root=tuple(eigs), vec_plus=None, vec_minus=None)
        if pair.reality(mode) == "zero":
            zero_items.extend(vecs)
        else:
            nonzero.append((tuple(eigs), vecs))
    data.zero_extra_dim = len(zero_items) - c

    used = set()
    scale = max([abs(complex(v)) for eigs, _ in nonzero for v in eigs] + [1.0])
    tol = 10 * mode.tol * scale
    for i, (eigs, vecs) in enumerate(nonzero):
        if i in used:
            continue
        used.add(i)
        partner = claim(nonzero, used,
                        lambda item: all(near(x, -y, tol) for x, y in zip(eigs, item[0])))
        if partner is None or len(partner[1]) != len(vecs):
            raise ToleranceError("a root space failed to pair with its negative")
        eigs_m, vecs_m = partner
        data.pairs += [_orient_pair(eigs, vp, eigs_m, vm) for vp, vm in zip(vecs, vecs_m)]
    return data


def _orient_pair(eigs_p, vec_p, eigs_m, vec_m) -> RootPair:
    """Choose the + representative deterministically (first nonzero value in
    the closed upper half plane / positive reals), with exact signs for
    exact values."""
    for v in eigs_p:
        if v != 0:
            im = cimag(v)
            if im > 0 or (im == 0 and creal(v) > 0):
                return RootPair(root=eigs_p, vec_plus=vec_p, vec_minus=vec_m)
            break
    return RootPair(root=eigs_m, vec_plus=vec_m, vec_minus=vec_p)


def is_nondegenerate_linear(data: RootData, mode: Mode = EXACT):
    """(flag, reason): the root decomposition succeeded with independent roots."""
    if data.residual is not None:
        return False, data.residual
    if data.zero_extra_dim > 0:
        return False, "RootsDependent"
    n = len(data.pairs)
    if n == 0:
        return True, None
    coeff = [list(p.root) for p in data.pairs]
    if mat_rank(coeff, mode) < n:
        return False, "RootsDependent"
    return True, None


# ---------------------------------------------------------------------------
# classification into elementary blocks
# ---------------------------------------------------------------------------


def classify(lp: LinearPencil, data: RootData, mode: Mode = EXACT) -> BlockDecomposition:
    """Elementary-block content of a non-degenerate pencil with root data ``data``.

    Per +/- pair the discriminating scalar is the root evaluated on the
    bracket of its two root vectors; its vanishing and sign select between
    the semisimple blocks and the diamond-type blocks.  A complex pair of a
    real pencil closes up with its conjugate into one block.
    """
    out = BlockDecomposition()
    g = lp.algebra
    zero_tol = 1000 * mode.tol

    consumed = set()
    for i, pair in enumerate(data.pairs):
        if i in consumed:
            continue
        consumed.add(i)
        kind = "complex" if data.field == COMPLEX else pair.reality(mode)
        if kind == "real":
            pair = RootPair(pair.root, _realify(pair.vec_plus), _realify(pair.vec_minus))
        elif kind == "imaginary":
            # canonical minus vector: the conjugate of the plus vector
            pair = RootPair(pair.root, pair.vec_plus, [conj(v) for v in pair.vec_plus])
        elif data.field != COMPLEX:
            targets = ([conj(v) for v in pair.root], [-conj(v) for v in pair.root])
            tol = 10 * mode.tol * max([abs(complex(v)) for v in pair.root] + [1.0])
            if claim(data.pairs, consumed, lambda other: any(
                    all(near(x, y, tol) for x, y in zip(other.root, target))
                    for target in targets)) is None:
                raise ToleranceError("complex root quadruple failed to close up")
        s = _pairing_scalar(g, data, pair, mode)
        if kind == "real":
            name = "diamond_h" if near(s, 0, zero_tol) else "sl2_pos_killing"
        elif kind == "imaginary":
            name = ("diamond" if near(s, 0, zero_tol)
                    else "so3" if creal(s) < 0 else "sl2_neg_killing")
        else:
            name = "diamond_C" if near(s, 0, zero_tol) else "so3C"
        out.counts[name] += 1

    # the structure vectors span the derived algebra [g, g]
    center, structure = g.center(mode), list(g._c.values())
    out.abelian_dim = mat_rank(center + structure, mode) - mat_rank(structure, mode)
    out.central_ideal_dim = out.block_dim_total(data.field) + out.abelian_dim - g.dim
    if out.central_ideal_dim < 0:
        raise ToleranceError("block reconstruction identity failed")
    return out


def analyze_linear(lp: LinearPencil, mode: Mode = EXACT,
                   kernel: CocycleKernel | None = None) -> LinearAnalysis:
    """Root decomposition, non-degeneracy and, when non-degenerate, the blocks;
    ``kernel`` is Ker A when the caller has it already."""
    data = root_decomposition(lp, mode, kernel)
    ok, reason = is_nondegenerate_linear(data, mode)
    return LinearAnalysis(data, reason, classify(lp, data, mode) if ok else None)


def _realify(vec):
    if any(is_exact_scalar(v) and cimag(v) != 0 for v in vec):
        raise ToleranceError("expected a real root vector")
    return [creal(v) if is_exact_scalar(v) else complex(v).real for v in vec]


def _pairing_scalar(g, data: RootData, pair: RootPair, mode: Mode):
    """root([e_+, e_-]) with the bracket expressed in kernel coordinates."""
    coords = coords_in_span(data.kernel_basis, [g.bracket(pair.vec_plus, pair.vec_minus)], mode)
    if coords is None:
        raise ToleranceError("bracket of root vectors left the cocycle kernel")
    total = 0
    for r, c in zip(pair.root, coords[0]):
        total = total + r * c
    return tidy(total)
