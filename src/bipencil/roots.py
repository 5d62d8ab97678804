"""Root decomposition of a linear pencil and the elementary-block classifier.

The kernel of the cocycle acts on the algebra by commuting operators; when
those are all semisimple the complexified algebra splits into joint
eigenspaces.  Non-degeneracy asks for one-dimensional root spaces with
linearly independent roots; the surviving pencils are then recognized as sums
of six elementary blocks (three semisimple, three diamond-type) modulo a
central ideal and an Abelian summand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, ToleranceError
from .exactlin import (coords_in_span, eigenvalues, identity, intersect_dims,
                       mat_rank, mat_sub, mat_scale, nullspace, restrict,
                       subspace_dim)
from .liealg import COMPLEX, REAL, CocycleKernel, LinearPencil, kernel_of_cocycle
from .scalars import (EXACT, Mode, cimag, conj, creal,
                      is_exact_scalar, simplify_scalar)


@dataclass
class RootPair:
    """A +/- pair of roots with their (lifted) root vectors in the algebra."""

    root: tuple              # values of the + root on the kernel basis
    vec_plus: list
    vec_minus: list

    def reality(self, mode: Mode = EXACT) -> str:
        """'real', 'imaginary', 'complex', or 'zero' (as a functional)."""
        vals = [complex(v) for v in self.root]
        scale = max([abs(v) for v in vals] + [1e-300])
        tol = 0.0 if mode.is_exact and all(is_exact_scalar(v) for v in self.root) \
            else 10 * max(mode.eps, 1e-12) * scale
        all_zero = all(abs(v) <= tol for v in vals)
        if all_zero:
            return "zero"
        if all(abs(v.imag) <= tol for v in vals):
            return "real"
        if all(abs(v.real) <= tol for v in vals):
            return "imaginary"
        return "complex"


@dataclass
class RootData:
    kernel_basis: list
    pairs: list
    residual: str | None = None      # failure reason, None on success
    zero_extra_dim: int = 0          # joint zero-eigenspace beyond Ker A
    field: str = REAL
    cocycle_rank: int = 0

    @property
    def roots(self):
        return [p.root for p in self.pairs]

    def ok(self) -> bool:
        return self.residual is None


@dataclass
class WilliamsonType:
    ke: int = 0
    kh: int = 0
    kf: int = 0

    def __add__(self, other: "WilliamsonType") -> "WilliamsonType":
        return WilliamsonType(self.ke + other.ke, self.kh + other.kh, self.kf + other.kf)

    def as_tuple(self):
        return (self.ke, self.kh, self.kf)

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

    def block_dim_total(self, field_name: str) -> int:
        dims = self._REAL_DIMS if field_name == REAL else self._COMPLEX_DIMS
        return sum(dims.get(name, 0) * n for name, n in self.counts.items())

    def to_json_dict(self):
        return {"counts": {k: v for k, v in sorted(self.counts.items())},
                "abelian_dim": self.abelian_dim,
                "central_ideal_dim": self.central_ideal_dim}


# ---------------------------------------------------------------------------
# joint eigendecomposition of the commuting kernel action
# ---------------------------------------------------------------------------


def _combine(basis, coords):
    out = [0] * len(basis[0])
    for c, b in zip(coords, basis):
        for k, v in enumerate(b):
            out[k] = out[k] + c * v
    return [simplify_scalar(v + Fraction(0)) if is_exact_scalar(v) else v for v in out]


def joint_eigenvectors(mats, mode: Mode = EXACT):
    """Split the ambient space by the commuting family; returns (eigtuple, vectors).

    Each item is a maximal joint eigenspace: the tuple of eigenvalues (one per
    operator) and a basis of the space.  Raises ToleranceError if a
    restriction refuses to split (non-semisimple family).
    """
    if not mats:
        return []
    m = len(mats[0])
    items = [((), identity(m))]
    for A in mats:
        new_items = []
        for (eigs, basis) in items:
            R = restrict(A, basis, mode)
            if R is None:
                raise ToleranceError("operator failed to preserve an invariant subspace")
            exact_eigs, float_eigs = eigenvalues(R, mode)
            total_mult = sum(mult for _, mult in exact_eigs) + sum(m2 for _, m2 in float_eigs)
            if total_mult != len(basis):
                raise ToleranceError("eigenvalue multiplicities failed to add up")
            covered = 0
            for val, mult in list(exact_eigs) + list(float_eigs):
                shifted = mat_sub(R, mat_scale(identity(len(R)), val))
                sub = nullspace(shifted, mode)
                if len(sub) != mult:
                    raise ToleranceError(
                        "geometric multiplicity below algebraic (non-semisimple action)")
                vecs = [_combine(basis, coords) for coords in sub]
                new_items.append((eigs + (val,), vecs))
                covered += len(sub)
            if covered != len(basis):
                raise ToleranceError("joint eigenspaces failed to span")
        items = new_items
    return items


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------


def root_decomposition(lp: LinearPencil, mode: Mode = EXACT,
                       kernel: CocycleKernel | None = None) -> RootData:
    """Simultaneously diagonalize the kernel action and pair the roots.

    Failure modes are recorded in ``residual`` rather than raised: a
    non-Abelian kernel, a non-semisimple generator, oversized root spaces,
    or a deficient root count.
    """
    if kernel is None:
        kernel = kernel_of_cocycle(lp, mode)
    rank_a = lp.cocycle.rank(mode)
    data = RootData(kernel_basis=kernel.basis, pairs=[], field=lp.algebra.field,
                    cocycle_rank=rank_a)
    if not kernel.abelian:
        data.residual = "KernelNotAbelian"
        return data
    if not kernel.ad_semisimple:
        data.residual = "AdNotSemisimple"
        return data
    ad_mats = [lp.algebra.ad_matrix(x) for x in kernel.basis]
    try:
        items = joint_eigenvectors(ad_mats, mode)
    except ToleranceError:
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

    used = [False] * len(nonzero)
    scale = max([abs(complex(v)) for eigs, _ in nonzero for v in eigs] + [1.0])
    tol = 10 * max(mode.eps, 1e-12) * scale
    for i, (eigs, vecs) in enumerate(nonzero):
        if used[i]:
            continue
        used[i] = True
        partner = None
        for j in range(i + 1, len(nonzero)):
            if used[j]:
                continue
            other = nonzero[j][0]
            if _roots_negated(eigs, other, mode, tol):
                partner = j
                break
        if partner is None:
            data.residual = "RootPairingFailed"
            return data
        used[partner] = True
        vecs_m = nonzero[partner][1]
        if len(vecs) != len(vecs_m):
            data.residual = "RootSpaceTooBig"
            return data
        if len(vecs) > 1:
            # split into repeated one-dimensional pairs; dependence will follow
            data.residual = "RootSpaceTooBig"
            for vp, vm in zip(vecs, vecs_m):
                data.pairs.append(RootPair(root=eigs, vec_plus=vp, vec_minus=vm))
            continue
        data.pairs.append(_orient_pair(eigs, vecs[0], nonzero[partner][0], vecs_m[0], mode))
    return data


def _roots_negated(a, b, mode: Mode, tol: float) -> bool:
    if all(is_exact_scalar(x) for x in a) and all(is_exact_scalar(x) for x in b):
        return all(x + y == 0 for x, y in zip(a, b))
    return all(abs(complex(x) + complex(y)) <= tol for x, y in zip(a, b))


def _orient_pair(eigs_p, vec_p, eigs_m, vec_m, mode: Mode) -> RootPair:
    """Choose the + representative deterministically (first nonzero value in
    the closed upper half plane / positive reals)."""
    for v in eigs_p:
        z = complex(v)
        if abs(z) > 0:
            if z.imag > 0 or (z.imag == 0 and z.real > 0):
                return RootPair(root=eigs_p, vec_plus=vec_p, vec_minus=vec_m)
            break
    return RootPair(root=eigs_m, vec_plus=vec_m, vec_minus=vec_p)


def is_nondegenerate_linear(lp: LinearPencil, mode: Mode = EXACT,
                            data: RootData | None = None):
    """(flag, reason): root decomposition succeeds with independent roots."""
    if data is None:
        data = root_decomposition(lp, mode)
    if data.residual is not None:
        return False, data.residual
    if data.zero_extra_dim > 0:
        return False, "RootsDependent"
    n = len(data.pairs)
    if 2 * n != data.cocycle_rank:
        return False, "RootCountDeficit"
    if n == 0:
        return True, None
    coeff = [list(p.root) for p in data.pairs]
    if mat_rank(coeff, mode) < n:
        return False, "RootsDependent"
    return True, None


def linear_pencil_type(data: RootData, mode: Mode = EXACT) -> WilliamsonType:
    """Williamson type from the roots of a non-degenerate decomposition.

    Purely imaginary pairs are elliptic, real pairs hyperbolic, conjugate
    quadruples focus; a complex-field pencil contributes focus pairs only.
    """
    if data.residual is not None or data.zero_extra_dim > 0:
        raise PreconditionError("type of a degenerate root decomposition")
    if data.field == COMPLEX:
        return WilliamsonType(kf=len(data.pairs))
    t = WilliamsonType()
    consumed = [False] * len(data.pairs)
    for i, pair in enumerate(data.pairs):
        if consumed[i]:
            continue
        kind = pair.reality(mode)
        if kind == "imaginary":
            t.ke += 1
            consumed[i] = True
        elif kind == "real":
            t.kh += 1
            consumed[i] = True
        else:
            consumed[i] = True
            mate = _find_conjugate_pair(data.pairs, consumed, pair, mode)
            if mate is None:
                raise ToleranceError("complex root quadruple failed to close up")
            consumed[mate] = True
            t.kf += 1
    return t


def _find_conjugate_pair(pairs, consumed, pair, mode: Mode):
    target_a = tuple(conj(v) for v in pair.root)
    target_b = tuple(-conj(v) for v in pair.root)
    scale = max([abs(complex(v)) for v in pair.root] + [1.0])
    tol = 10 * max(mode.eps, 1e-12) * scale
    for j, other in enumerate(pairs):
        if consumed[j]:
            continue
        for target in (target_a, target_b):
            if all(is_exact_scalar(x) for x in other.root) and all(is_exact_scalar(x) for x in target):
                if all(x == y for x, y in zip(other.root, target)):
                    return j
            elif all(abs(complex(x) - complex(y)) <= tol
                     for x, y in zip(other.root, target)):
                return j
    return None


# ---------------------------------------------------------------------------
# classification into elementary blocks
# ---------------------------------------------------------------------------


def classify(lp: LinearPencil, mode: Mode = EXACT,
             data: RootData | None = None) -> BlockDecomposition:
    """Recognize the elementary-block content of a non-degenerate pencil.

    Per +/- pair the discriminating scalar is the root evaluated on the
    bracket of its two root vectors; its vanishing and sign select between
    the semisimple blocks and the diamond-type blocks.
    """
    if data is None:
        data = root_decomposition(lp, mode)
    ok, reason = is_nondegenerate_linear(lp, mode, data)
    if not ok:
        raise PreconditionError(f"classification of a degenerate pencil ({reason})")
    out = BlockDecomposition()
    g = lp.algebra

    consumed = [False] * len(data.pairs)
    for i, pair in enumerate(data.pairs):
        if consumed[i]:
            continue
        consumed[i] = True
        if data.field == COMPLEX:
            s = _pairing_scalar(g, data, pair, mode)
            out.counts["so3C" if not _is_zero_scalar(s, mode) else "diamond_C"] += 1
            continue
        kind = pair.reality(mode)
        if kind == "real":
            vp, vm = _realify(pair.vec_plus, mode), _realify(pair.vec_minus, mode)
            s = _pairing_scalar(g, data, RootPair(pair.root, vp, vm), mode)
            out.counts["sl2_pos_killing" if not _is_zero_scalar(s, mode) else "diamond_h"] += 1
        elif kind == "imaginary":
            # canonical minus vector: the conjugate of the plus vector
            vm = [conj(v) for v in pair.vec_plus]
            s = _pairing_scalar(g, data, RootPair(pair.root, pair.vec_plus, vm), mode)
            if _is_zero_scalar(s, mode):
                out.counts["diamond"] += 1
            else:
                sr = creal(s) if is_exact_scalar(s) else complex(s).real
                out.counts["so3" if sr < 0 else "sl2_neg_killing"] += 1
        else:
            mate = _find_conjugate_pair(data.pairs, consumed, pair, mode)
            if mate is None:
                raise ToleranceError("complex root quadruple failed to close up")
            consumed[mate] = True
            s = _pairing_scalar(g, data, pair, mode)
            out.counts["so3C" if not _is_zero_scalar(s, mode) else "diamond_C"] += 1

    center = g.center(mode)
    derived = g.derived_basis(mode)
    zc = subspace_dim(center, mode)
    zc_in_derived = intersect_dims(center, derived, mode)
    out.abelian_dim = zc - zc_in_derived
    out.central_ideal_dim = out.block_dim_total(data.field) + out.abelian_dim - g.dim
    if out.central_ideal_dim < 0:
        raise ToleranceError("block reconstruction identity failed")
    return out


def _is_zero_scalar(s, mode: Mode) -> bool:
    if is_exact_scalar(s):
        return s == 0
    return abs(complex(s)) <= 1000 * max(mode.eps, 1e-12)


def _realify(vec, mode: Mode):
    out = []
    for v in vec:
        if is_exact_scalar(v):
            if cimag(v) != 0:
                raise ToleranceError("expected a real root vector")
            out.append(creal(v))
        else:
            z = complex(v)
            out.append(z.real)
    return out


def _pairing_scalar(g, data: RootData, pair: RootPair, mode: Mode):
    """root([e_+, e_-]) with the bracket expressed in kernel coordinates."""
    w = g.bracket(pair.vec_plus, pair.vec_minus)
    coords = coords_in_span(data.kernel_basis, w, mode)
    if coords is None:
        raise ToleranceError("bracket of root vectors left the cocycle kernel")
    total = 0
    for r, c in zip(pair.root, coords):
        total = total + r * c
    return simplify_scalar(total + Fraction(0)) if is_exact_scalar(total) else total
