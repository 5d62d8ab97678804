"""Point-wise linear algebra of a pencil of skew forms.

Everything here works on a PencilAtPoint: ranks across the parameter,
the spectrum (parameters where the rank drops), the isotropic core L spanned
by regular kernels, induced forms and recursion operators on the quotient
L^perp / L, and the diagonalizability test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RankDeficientPointError, SingularParameterError, ToleranceError
from .exactlin import (basis_union, bilinear, eigenvalues, identity, mat_rank, mat_vec,
                       nullspace, nullspace_mod_p, primitive_row, residues, solve, span_mod_p)
from .sampling import SamplingPolicy
from .scalars import (EXACT, INF, Mode, cimag, conj, is_exact_scalar,
                      is_inf, lambda_is_real, near, snap_candidates, tidy)
from .tensorfield import PencilAtPoint, skew


def _decision_matrix(p: PencilAtPoint, lam, mode: Mode):
    """P_lambda(x) for a rank or kernel decision: in exact mode its integer
    multiple ``p.integer_matrix_at(lam)`` where there is one."""
    M = p.integer_matrix_at(lam) if mode.is_exact else None
    return p.matrix_at(lam) if M is None else M


def rank_at(p: PencilAtPoint, lam, mode: Mode = EXACT, warnings=None) -> int:
    """Rank of P_lambda(x) under the mode's rank rule."""
    return mat_rank(_decision_matrix(p, lam, mode), mode, warnings, what=f"rank at lambda={lam}")


def pencil_rank_corank(p: PencilAtPoint, sampler: SamplingPolicy,
                       mode: Mode = EXACT, warnings=None):
    """(rank, corank) of the pencil at the point.

    The maximum of rank P_lambda over floor(d/2) distinct rationals and
    infinity.  By the Jordan-Kronecker theorem, over C the corank = d - r
    Kronecker blocks fill at least d - r dimensions, so the Jordan part fills
    at most r; each distinct eigenvalue, infinity included, takes at least a
    pair of dimensions of it.  So P_lambda drops rank at no more than
    r/2 <= floor(d/2) points of P^1, and one of the floor(d/2) + 1 samples
    is generic.
    """
    samples = sampler.distinct_rationals(p.dim // 2) + [INF]
    best = max(rank_at(p, lam, mode, warnings) for lam in samples)
    return best, p.dim - best


def kernel_basis(p: PencilAtPoint, lam, mode: Mode = EXACT):
    """Kernel of P_lambda(x); complexified automatically for non-real lambda."""
    return nullspace(_decision_matrix(p, lam, mode), mode)


def regular_parameters(p: PencilAtPoint, sampler: SamplingPolicy, count: int,
                       mode: Mode = EXACT, *, rank: int, exclude=()):
    """``count`` pairs (lambda, Ker P_lambda) at distinct finite rational
    parameters where the rank is ``rank``; the kernel decides the rank."""
    def kernel_if_regular(lam):
        ker = kernel_basis(p, lam, mode)
        return ker if p.dim - len(ker) == rank else None
    return _draw_regular(sampler, count, kernel_if_regular, exclude)


def _draw_regular(sampler: SamplingPolicy, count: int, kernel_if_regular, exclude=()):
    """``count`` pairs (lambda, kernel_if_regular(lambda)) at distinct finite
    rational draws where that kernel is not None."""
    out, seen, attempts = [], set(exclude), 0
    while len(out) < count:
        attempts += 1
        if attempts > 60 * count + 200:
            raise RankDeficientPointError(
                "could not find enough regular parameters; the pencil rank at this "
                "point may be below the declared pencil rank")
        lam = sampler.rational()
        if lam in seen:
            continue
        seen.add(lam)
        ker = kernel_if_regular(lam)
        if ker is not None:
            out.append((lam, ker))
    return out


@dataclass
class SpectrumEntry:
    lam: object            # Fraction | QQi | complex | INF
    kernel_dim: int
    paired: bool = False   # True when the entry stands for a conjugate pair


@dataclass
class Spectrum:
    entries: list
    corank: int
    recursion: RecursionOperator | None = None   # the operator the entries came from

    def is_empty(self) -> bool:
        return not self.entries


@dataclass
class IsotropicCore:
    basis: list                 # covectors spanning L
    regular_params: list        # the sampled parameters whose kernels were summed
    dim_sequence: list          # accumulated dimension after each kernel
    corank: int

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class RecursionOperator:
    matrix: list
    alpha: object
    beta: object


def compute_core(p: PencilAtPoint, sampler: SamplingPolicy, mode: Mode = EXACT,
                 *, rank: int) -> IsotropicCore:
    """Accumulate kernels of regular brackets (pencil rank ``rank``) until they span L.

    Stops at the first kernel that adds nothing, or once the span reaches
    d - rank/2, the largest dimension of the isotropic L; see _span_kernels.
    """
    basis, params, dims = _span_kernels(
        p.dim, lambda params: regular_parameters(p, sampler, 1, mode, rank=rank,
                                                 exclude=params)[0],
        lambda basis, ker: basis_union(basis, ker, mode), full=p.dim - rank // 2)
    return IsotropicCore(basis=basis, regular_params=params, dim_sequence=dims,
                         corank=p.dim - rank)


def quotient_dim_mod_p(p: PencilAtPoint, sampler: SamplingPolicy, *, rank: int):
    """quotient_dim of the pencil ``p`` of rank ``rank``, its core spanned over
    F_PRIME: never below the rational value, since a kernel mod PRIME at a
    draw of rank ``rank`` reduces the rational one.  None when PRIME divides a
    denominator or no regular draw or stable span is found."""
    def kernel_if_regular(lam):
        l, = residues([lam])
        ker = nullspace_mod_p(skew(p.dim, entries, l))
        return ker if p.dim - len(ker) == rank else None

    try:
        entries = [(i, j, *residues([a0, ainf])) for i, j, a0, ainf in p.entries]
        basis, _, _ = _span_kernels(
            p.dim, lambda params: _draw_regular(sampler, 1, kernel_if_regular, params)[0],
            lambda basis, ker: span_mod_p(basis + ker), full=p.dim - rank // 2)
    except (ValueError, RankDeficientPointError, ToleranceError):
        return None
    return p.dim - 2 * len(basis) + p.dim - rank


def _span_kernels(dim: int, draw, union, full: int):
    """(basis, params, dims) of the span of kernels from ``draw(params)``, a
    fresh (lambda, kernel) pair at a regular parameter, joined by ``union``.

    The first kernel that adds nothing ends the loop: at regular parameters
    only the Kronecker blocks have kernel, and m distinct ones span
    min(m, k + 1) dimensions of a block of half-size k (a Vandermonde
    matrix), so step m adds one dimension per block with k >= m - 1, and a
    step that adds none is followed by none that adds.  A span of dimension
    ``full``, the bound on dim L, ends the loop at once."""
    basis, params, dims = [], [], []
    hard_cap = max(2 * dim + 4, 8)
    while True:
        lam, ker = draw(params)
        new_basis = union(basis, ker)
        params.append(lam)
        dims.append(len(new_basis))
        if len(new_basis) in (len(basis), full):
            return new_basis, params, dims
        basis = new_basis
        if len(params) > hard_cap:
            raise ToleranceError(
                "core accumulation failed to stabilize; inconsistent float tolerance")


def core_perp(p: PencilAtPoint, core: IsotropicCore, mode: Mode = EXACT):
    """Basis of L^perp = {xi : P_alpha(xi, L) = 0}; independent of regular alpha.
    On the integer form of P_alpha the core vectors are cleared of denominators
    too: that scales the rows, and leaves their kernel."""
    if not core.basis:
        return identity(p.dim)
    alpha = core.regular_params[0]
    A = p.integer_matrix_at(alpha) if mode.is_exact else None
    rows = ([mat_vec(p.matrix_at(alpha), l) for l in core.basis] if A is None
            else [mat_vec(A, primitive_row(l)) for l in core.basis])
    return nullspace(rows, mode)


def quotient_basis(p: PencilAtPoint, core: IsotropicCore, mode: Mode = EXACT):
    """Covectors in L^perp completing a basis of L (deterministic choice)."""
    return basis_union(core.basis, core_perp(p, core, mode), mode)[core.dim:]


def quotient_dim(p: PencilAtPoint, core: IsotropicCore) -> int:
    """dim L^perp / L = dim - 2 dim L + corank (L holds every regular kernel).

    Zero exactly when the pencil has only Kronecker blocks at the point: a
    block of half-size k adds k+1 to L and 2k+1 to the dimension, a Jordan
    block nothing to L (Bolsinov-Zhang).
    """
    return p.dim - 2 * core.dim + core.corank


def quotient_form(p: PencilAtPoint, basis, lam):
    """Gram matrix of P_lambda on ``basis``: its matrix on L^perp / L in a
    quotient basis, or a linearization's cocycle on a kernel basis."""
    A = p.matrix_at(lam)
    return [[tidy(bilinear(A, u, v)) for v in basis] for u in basis]


def recursion_operator(p: PencilAtPoint, qbasis, alpha, beta,
                       mode: Mode = EXACT) -> RecursionOperator:
    """R_alpha^beta = P_beta^{-1} P_alpha on the quotient; beta must be regular."""
    R = solve(quotient_form(p, qbasis, beta), quotient_form(p, qbasis, alpha), mode)
    if R is None:
        raise SingularParameterError(f"beta={beta} is singular on the quotient")
    return RecursionOperator(matrix=R, alpha=alpha, beta=beta)


def _moebius_to_lambda(mu, t1, t2, mode: Mode):
    """Map an eigenvalue mu of R_{t1}^{t2} to the pencil parameter lambda.

    R u = mu u on the quotient means P_{t1} u = mu P_{t2} u, i.e. u lies in
    the kernel of P_lambda with lambda = (t1 - mu t2) / (1 - mu); mu = 1
    corresponds to lambda = infinity.
    """
    if is_exact_scalar(mu):
        if mu == 1:
            return INF
        return tidy((t1 - mu * t2) / (1 - mu))
    mu = complex(mu)
    if abs(mu - 1.0) <= 10 * mode.tol * max(1.0, abs(mu)):
        return INF
    return (complex(t1) - mu * complex(t2)) / (1.0 - mu)


def lambda_to_moebius(lam, t1, t2):
    """Inverse map: the R_{t1}^{t2}-eigenvalue corresponding to pencil lambda."""
    if is_inf(lam):
        return Fraction(1)
    if is_exact_scalar(lam):
        return tidy((t1 - lam) / (t2 - lam))
    lam = complex(lam)
    return (complex(t1) - lam) / (complex(t2) - lam)


def compute_spectrum(p: PencilAtPoint, core: IsotropicCore, sampler: SamplingPolicy,
                     mode: Mode = EXACT, warnings=None) -> Spectrum:
    """Parameters where rank P_lambda(x) < rank Pi(x), with exact kernel dims.

    Candidates come from the eigenvalues of a recursion operator between two
    regular parameters, mapped back through the Moebius normalization; every
    candidate is then re-verified by an independent rank computation.  The
    pencil rank is dim - core.corank; the spectrum is empty, with no
    operator, when L^perp / L is zero, and otherwise keeps the operator.
    """
    corank = core.corank
    if quotient_dim(p, core) == 0:
        return Spectrum(entries=[], corank=corank)
    qbasis = quotient_basis(p, core, mode)
    (t1, _), (t2, _) = _draw_regular(
        sampler.spawn(3), 2, lambda lam: rank_at(p, lam, mode) == p.dim - corank or None)
    R = recursion_operator(p, qbasis, t1, t2, mode)

    def point(lam):
        return 0j if is_inf(lam) else complex(lam)

    entries = []
    exact, floats = eigenvalues(R.matrix, mode)
    for mu, _mult in exact + floats:
        lam = _moebius_to_lambda(mu, t1, t2, mode)
        if not is_exact_scalar(mu):
            lam_c = point(lam)
            if any(is_inf(lam) == is_inf(e.lam)
                   and abs(lam_c - point(e.lam)) <= 1e-7 * max(1.0, abs(lam_c)) for e in entries):
                continue
            # the pencil parameter usually has modest height even when the
            # recursion eigenvalue does not, so rationalize lambda itself first
            snapped = None if is_inf(lam) else next(snap_candidates(lam_c, 1e-8), None)
            if snapped is not None and (mode.is_exact or all(
                    is_exact_scalar(x) for _, _, *pair in p.entries for x in pair)):
                kd = p.dim - rank_at(p, snapped, EXACT, warnings)
                if kd > corank:
                    entries.append(SpectrumEntry(lam=snapped, kernel_dim=kd))
                    continue
        kd = p.dim - rank_at(p, lam, mode, warnings)
        if kd > corank:
            entries.append(SpectrumEntry(lam=lam, kernel_dim=kd))
            if warnings is not None and mode.is_exact and not is_exact_scalar(mu):
                warnings.append(
                    f"spectrum value {lam} is irrational; verified with float tolerance 1e-9")
    entries = _canonicalize_conjugates(p, entries, mode)
    entries.sort(key=lambda e: (1 if is_inf(e.lam) else 0,
                                (abs(complex(e.lam)), complex(e.lam).real,
                                 complex(e.lam).imag) if not is_inf(e.lam) else (0, 0, 0)))
    return Spectrum(entries=entries, corank=corank, recursion=R)


def _canonicalize_conjugates(p: PencilAtPoint, entries, mode: Mode):
    """For real pencils, store one entry per conjugate pair (Im > 0 kept)."""
    if any(cimag(x) for _, _, *pair in p.entries for x in pair):
        return entries
    out = []
    used = set()
    for i, e in enumerate(entries):
        if i in used:
            continue
        if not lambda_is_real(e.lam):
            tol = 10 * mode.tol * max(1.0, abs(complex(e.lam)))
            j = next((j for j in range(i + 1, len(entries)) if j not in used
                      and not lambda_is_real(entries[j].lam)
                      and near(entries[j].lam, conj(e.lam), tol)), None)
            if j is not None:
                used.add(j)
                e = e if cimag(e.lam) > 0 else entries[j]
                e.paired = True
        out.append(e)
    return out


def is_diagonalizable(form, corank: int, mode: Mode = EXACT) -> bool:
    """dim Ker(P_alpha | Ker P_lambda) == corank, read off the linearization's form.

    ``form`` is the Gram matrix on Ker P_lambda of Ainf (of A0 at lambda =
    infinity).  There a regular P_alpha restricts to (alpha - lambda) times
    it (to it at infinity), so both have the same kernel dimension.
    """
    return len(form) - mat_rank(form, mode) == corank
