"""Point-wise linear algebra of a pencil of skew forms.

Everything here works on a PencilAtPoint: ranks across the parameter,
the spectrum (parameters where the rank drops), the isotropic core L spanned
by regular kernels, induced forms and recursion operators on the quotient
L^perp / L, and the diagonalizability test.  No parameter is random: every
finite lambda, distinct or regular, is taken in order from ``height_walk``,
as P_lambda drops rank at no more than floor(d/2) of them, and so is every
point the analysis picks, by ``point_walk``.  Every exact rank or kernel at
lambda, of any exact pencil, reads the one forward elimination of P_lambda
per point and lambda kept by ``PencilAtPoint.elimination_at``: the rank
samples, the core walk, the spectrum's checks and each per-lambda kernel
share it, and a kernel is back-substituted from it once.  Float mode reads
the one SVD of the float P_lambda kept beside it, ``PencilAtPoint.svd_at``,
for the same ranks and kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import RankDeficientPointError, SingularParameterError
from .exactlin import (Span, eigenvalues, eliminate, identity, mat_vec, nullspace_float, solve,
                       svd_rank)
from .scalars import (EXACT, INF, Mode, cimag, claim, conj, is_exact_scalar,
                      is_inf, lambda_is_real, near, snap, tidy)
from .tensorfield import PencilAtPoint, gram


def height_walk():
    """The nonzero rationals by height max(|p|, q): 1, -1, 2, -2, 1/2, -1/2, 3, ...
    Zero, a spectrum value at every catalog origin and singular Toda point,
    is left out; small heights keep R's characteristic polynomial small."""
    for h in itertools.count(1):
        for num, den in [(h, q) for q in range(1, h + 1)] + [(q, h) for q in range(1, h)]:
            if gcd(num, den) == 1:
                yield from (Fraction(num, den), Fraction(-num, den))


def point_walk(dim: int):
    """Points of ``dim`` coordinates, point k filled with the next ``dim``
    positive values of one height walk: [1, 2, 1/2], [3, 3/2, 1/3], ... for
    dim 3.  No two points are equal.  Each negative value follows its twin
    in the walk, so points filled from both would all lie on x1 = -x2."""
    walk = (x for x in height_walk() if x > 0)
    while True:
        yield list(itertools.islice(walk, dim))


def rank_at(p: PencilAtPoint, lam, mode: Mode = EXACT, warnings=None) -> int:
    """Rank of P_lambda(x) under the mode's rank rule: exact, the pivot count
    of its elimination; in floats, read off its kept SVD."""
    if mode.is_exact:
        return p.elimination_at(lam).rank
    return svd_rank(p.svd_at(lam), mode.tol, warnings, what=f"rank at lambda={lam}")


def pencil_rank_corank(p: PencilAtPoint, mode: Mode = EXACT, warnings=None):
    """(rank, corank) of the pencil at the point.

    The maximum of rank P_lambda over the first floor(d/2) values of the
    height walk and infinity.  By the Jordan-Kronecker theorem, over C the
    corank = d - r Kronecker blocks fill at least d - r dimensions, so the
    Jordan part fills at most r; each distinct eigenvalue, infinity included,
    takes at least a pair of dimensions of it.  So P_lambda drops rank at no
    more than r/2 <= floor(d/2) points of P^1, and one of the floor(d/2) + 1
    samples is generic.
    """
    samples = list(itertools.islice(height_walk(), p.dim // 2)) + [INF]
    best = max(rank_at(p, lam, mode, warnings) for lam in samples)
    return best, p.dim - best


def kernel_basis(p: PencilAtPoint, lam, mode: Mode = EXACT):
    """Kernel of P_lambda(x); complexified automatically for non-real lambda.
    Exact, it is back-substituted from the elimination that ``rank_at``
    reads, once, and kept there; the caller gets a copy.  In floats, it is
    read off the SVD that ``rank_at`` reads."""
    if mode.is_exact:
        return [list(v) for v in p.elimination_at(lam).kernel]
    return nullspace_float(p.svd_at(lam), mode.tol)


def regular_parameters(p: PencilAtPoint, walk, mode: Mode = EXACT, *, rank: int):
    """The pair (lambda, Ker P_lambda) at the next value of ``walk``, a
    height walk, where the rank is ``rank``: exact, the rank of P_lambda's
    elimination, and a copy of its ``kernel_lines`` (over Z primitive
    integer rows, which a ``Span`` clears with no denominator); else the
    size of the kernel read off its SVD.
    At most floor(d/2) values are not where the rank is attained (see
    pencil_rank_corank), so one miss more raises RankDeficientPointError."""
    for _ in range(p.dim // 2 + 1):
        lam = next(walk)
        if mode.is_exact:
            e = p.elimination_at(lam)
            if e.rank == rank:
                return lam, [list(v) for v in e.kernel_lines]
        else:
            ker = kernel_basis(p, lam, mode)
            if p.dim - len(ker) == rank:
                return lam, ker
    raise RankDeficientPointError(
        "could not find enough regular parameters; the pencil rank at this "
        "point may be below the declared pencil rank")


@dataclass
class SpectrumEntry:
    lam: object            # Fraction | QQi (in Q(sqrt d)) | complex | INF
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
    span: Span                  # the covectors spanning L, as the walk kept them
    regular_params: list        # the walked parameters whose kernels were summed
    dim_sequence: list          # accumulated dimension after each kernel
    corank: int

    @property
    def basis(self) -> list:
        return self.span.vectors

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class RecursionOperator:
    matrix: list
    alpha: object
    beta: object


def compute_core(p: PencilAtPoint, mode: Mode = EXACT, *, rank: int) -> IsotropicCore:
    """Accumulate kernels of regular brackets (pencil rank ``rank``) until they span L.

    The kernels are taken at the regular values of one height walk, in order,
    and each extends one ``Span``, which keeps its echelon across the walk, so
    only the new kernel is reduced.  The first kernel that adds nothing ends
    the loop: at regular parameters only the Kronecker blocks have kernel,
    and m distinct ones span min(m, k + 1) dimensions of a block of
    half-size k (a Vandermonde matrix), so step m adds one dimension per
    block with k >= m - 1, and a step that adds none is followed by none
    that adds.  A span of dimension d - rank/2, the largest dimension of the
    isotropic L, ends the loop at once, so every later step grows the span.
    At least two kernels are taken, as R is built between the first two
    parameters.
    """
    walk, full = height_walk(), p.dim - rank // 2
    span, params, dims = Span(mode), [], []
    while True:
        lam, ker = regular_parameters(p, walk, mode, rank=rank)
        added = span.extend(ker)
        params.append(lam)
        dims.append(len(span.vectors))
        if len(params) > 1 and (not added or dims[-1] == full):
            return IsotropicCore(span=span, regular_params=params, dim_sequence=dims,
                                 corank=p.dim - rank)


def core_perp(p: PencilAtPoint, core: IsotropicCore, mode: Mode = EXACT):
    """Basis of L^perp = {xi : P_alpha(xi, L) = 0}; independent of regular alpha.
    Exact, the integer form of P_alpha, a multiple with the same kernel,
    meets the core's integer rows (``regular_parameters``), and the kernel
    comes back as the ``kernel_lines`` of their elimination, integer rows
    over Z.  The rows have rank dim L - corank (L holds Ker P_alpha), so
    float mode takes the last dim - dim L + corank right singular vectors
    of the rows, made with the kept float P_alpha, as the rows may be
    roundoff."""
    if not core.basis:
        return identity(p.dim)
    alpha = core.regular_params[0]
    ints = p.integer_matrix_at(alpha) if mode.is_exact else None
    A = ints or (p.matrix_at(alpha) if mode.is_exact else p.svd_at(alpha).matrix)
    rows = [mat_vec(A, l) for l in core.basis]
    return (eliminate(rows).kernel_lines if mode.is_exact
            else nullspace_float(rows, mode.tol, dim=p.dim - core.dim + core.corank))


def quotient_basis(p: PencilAtPoint, core: IsotropicCore, mode: Mode = EXACT):
    """Covectors in L^perp completing a basis of L (deterministic choice): the
    ones a copy of the core's span keeps of ``core_perp``."""
    return core.span.copy().extend(core_perp(p, core, mode))


def quotient_dim(p: PencilAtPoint, core: IsotropicCore) -> int:
    """dim L^perp / L = dim - 2 dim L + corank (L holds every regular kernel).

    Zero exactly when the pencil has only Kronecker blocks at the point: a
    block of half-size k adds k+1 to L and 2k+1 to the dimension, a Jordan
    block nothing to L (Bolsinov-Zhang).
    """
    return p.dim - 2 * core.dim + core.corank


def quotient_form(p: PencilAtPoint, basis, lam):
    """Gram matrix of P_lambda on ``basis``: its matrix on L^perp / L in a
    quotient basis, or a linearization's cocycle on a kernel basis: one
    ``gram`` contraction, of every entry, the lower half too."""
    m = len(basis)
    values, = gram(p.dim, [p.entries], lam, basis, [(u, v) for u in range(m) for v in range(m)])
    return [values[u * m:(u + 1) * m] for u in range(m)]


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
    corresponds to lambda = infinity, within ``mode.tol`` for a float mu.
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
    """Inverse map: the R_{t1}^{t2}-eigenvalue corresponding to an exact pencil
    lambda, or infinity."""
    if is_inf(lam):
        return Fraction(1)
    return tidy((t1 - lam) / (t2 - lam))


def compute_spectrum(p: PencilAtPoint, core: IsotropicCore, mode: Mode = EXACT,
                     warnings=None) -> Spectrum:
    """Parameters where rank P_lambda(x) < rank Pi(x), with exact kernel dims.

    Candidates come from the eigenvalues of the recursion operator between
    the core's first two regular parameters, mapped back through the Moebius
    normalization; every candidate is then re-verified by an independent
    rank computation, exact in exact mode, where ``exactlin.eigenvalues``
    refuses a candidate it cannot hold.  On a pencil with no imaginary
    entry, a float candidate within 1000 * tol * max(1, |lambda|) of the
    real axis, the tolerance of the eigenvalue clusters and of the snap, is
    taken as real.  The pencil rank is dim - core.corank;
    the spectrum is empty, with no operator, when L^perp / L is zero, and
    otherwise keeps the operator.
    """
    corank = core.corank
    if quotient_dim(p, core) == 0:
        return Spectrum(entries=[], corank=corank)
    qbasis = quotient_basis(p, core, mode)
    t1, t2 = core.regular_params[:2]
    R = recursion_operator(p, qbasis, t1, t2, mode)

    entries = []
    exact, floats = eigenvalues(R.matrix, mode)
    values = [x for _, _, *pair in p.entries for x in pair]
    rational = all(is_exact_scalar(x) for x in values)
    real = not any(cimag(x) for x in values)
    for mu, _mult in exact + floats:
        lam = _moebius_to_lambda(mu, t1, t2, mode)
        # a real pencil's spectrum is closed under conjugation, so an
        # imaginary part of rounding size makes no pair
        if real and not (mode.is_exact or is_inf(lam)) and \
                abs(lam.imag) <= 1000 * mode.tol * max(1.0, abs(lam)):
            lam = complex(lam.real)
        # the pencil parameter usually has modest height even when the float
        # recursion eigenvalue does not, so an exact pencil tries lambda
        # rationalized first, within the tolerance ``eigenvalues`` clusters
        # at; the exact rank decides whether a snapped value is in the
        # spectrum, and one already there is not entered twice
        for snapped in ([] if mode.is_exact or is_inf(lam) or not rational
                        else snap(lam, 1000 * mode.tol)):
            if snapped in [e.lam for e in entries]:
                break
            kd = p.dim - rank_at(p, snapped, EXACT, warnings)
            if kd > corank:
                entries.append(SpectrumEntry(lam=snapped, kernel_dim=kd))
                break
        else:
            kd = p.dim - rank_at(p, lam, mode, warnings)
            if kd > corank:
                entries.append(SpectrumEntry(lam=lam, kernel_dim=kd))
    if real:
        entries = _canonicalize_conjugates(entries, mode)
    entries.sort(key=lambda e: (1 if is_inf(e.lam) else 0,
                                (abs(complex(e.lam)), complex(e.lam).real,
                                 complex(e.lam).imag) if not is_inf(e.lam) else (0, 0, 0)))
    return Spectrum(entries=entries, corank=corank, recursion=R)


def _canonicalize_conjugates(entries, mode: Mode):
    """One entry per conjugate pair of a real pencil's spectrum (Im > 0 kept)."""
    out = []
    used = set()
    for i, e in enumerate(entries):
        if i in used:
            continue
        used.add(i)
        if not lambda_is_real(e.lam):
            tol = 10 * mode.tol * max(1.0, abs(complex(e.lam)))
            mate = claim(entries, used, lambda f: not lambda_is_real(f.lam)
                         and near(f.lam, conj(e.lam), tol))
            if mate is not None:
                e = e if cimag(e.lam) > 0 else mate
                e.paired = True
        out.append(e)
    return out


def is_diagonalizable(form, corank: int, mode: Mode = EXACT) -> bool:
    """dim Ker(P_alpha | Ker P_lambda) == corank, read off the linearization's form.

    ``form`` is the ``liealg.TwoCocycle`` of the Gram matrix on Ker P_lambda
    of Ainf (of A0 at lambda = infinity), whose one exact elimination then
    gives Ker A too.  There a regular P_alpha restricts to (alpha - lambda)
    times it (to it at infinity), so both have the same kernel dimension.
    """
    return form.dim - form.rank(mode) == corank
