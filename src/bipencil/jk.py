"""Jordan-Kronecker invariants of a skew pair, and the canonical assembler.

A pair of skew forms decomposes into Jordan blocks (one per spectrum value,
sizes recovered from kernel-power dimensions of a recursion operator, which
sees each block twice) and Kronecker blocks (half-sizes recovered from the
filtration of regular kernels inside the core L).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, ToleranceError
from .exactlin import identity, mat_mul, mat_rank, shift, transpose
from .pencil import (compute_core, compute_spectrum, lambda_to_moebius,
                     pencil_rank_corank)
from .sampling import SamplingPolicy
from .scalars import EXACT, Mode, QQi, conj, is_inf, lambda_key
from .tensorfield import PencilAtPoint, constant_pencil


@dataclass
class JKInvariants:
    corank: int
    kronecker_indices: list          # sorted half-sizes, one per Kronecker block
    jordan: dict                     # lambda-key -> sorted list of Jordan sizes

    def total_dimension(self) -> int:
        kron = sum(2 * k + 1 for k in self.kronecker_indices)
        jord = sum(2 * s for sizes in self.jordan.values() for s in sizes)
        return kron + jord

    def to_json_dict(self) -> dict:
        return {
            "corank": self.corank,
            "kronecker": sorted(self.kronecker_indices),
            "jordan": {key: sorted(sizes) for key, sizes in sorted(self.jordan.items())},
        }


@dataclass(frozen=True)
class JordanBlock:
    lam: object       # Fraction | QQi | INF
    size: int


@dataclass(frozen=True)
class KroneckerBlock:
    half_size: int


def _jordan_pair(lam, size: int):
    """Appendix-style Jordan pair A = [[0, J(lam)], [-J(lam)^T, 0]], B = [[0,-E],[E,0]],
    as its dimension and upper entries (i, j, A_ij, B_ij)."""
    return 2 * size, ([(i, size + i, lam, Fraction(-1)) for i in range(size)]
                      + [(i, size + i + 1, Fraction(1), Fraction(0)) for i in range(size - 1)])


def _jordan_pair_infinity(size: int):
    """The lambda = infinity Jordan pair: roles of the two forms swapped, J(0)."""
    n, entries = _jordan_pair(Fraction(0), size)
    return n, [(i, j, b, a) for i, j, a, b in entries]


def _kronecker_pair(k: int):
    """Kronecker pair of half-size k, as for _jordan_pair: S, T are k x (k+1)
    shifted identities, S with ones on (i, i) and T on (i, i+1)."""
    return 2 * k + 1, ([(i, k + i, Fraction(1), Fraction(0)) for i in range(k)]
                       + [(i, k + i + 1, Fraction(0), Fraction(1)) for i in range(k)])


def assemble_jk_canonical_pair(blocks) -> PencilAtPoint:
    """Block-diagonal canonical pair from Jordan/Kronecker descriptors.

    Complex Jordan eigenvalues are allowed (Gaussian rationals); derivative
    tensors are zero, so the result is a constant pencil.
    """
    pieces = []
    for b in blocks:
        if isinstance(b, JordanBlock):
            if b.size < 1:
                raise DimensionMismatchError("Jordan size must be >= 1")
            if is_inf(b.lam):
                pieces.append(_jordan_pair_infinity(b.size))
            else:
                lam = b.lam if isinstance(b.lam, QQi) else Fraction(b.lam)
                pieces.append(_jordan_pair(lam, b.size))
        elif isinstance(b, KroneckerBlock):
            if b.half_size < 0:
                raise DimensionMismatchError("Kronecker half-size must be >= 0")
            pieces.append(_kronecker_pair(b.half_size))
        else:
            raise DimensionMismatchError(f"unknown block descriptor {b!r}")
    entries, d = [], 0
    for n, piece in pieces:
        entries += sorted((d + i, d + j, a, b) for i, j, a, b in piece)
        d += n
    return PencilAtPoint(d, entries, [Fraction(0)] * d)


def congruent_pair(p: PencilAtPoint, U) -> PencilAtPoint:
    """U^T A U, U^T B U for a constant pencil (derivatives stay zero)."""
    Ut = transpose(U)
    A = mat_mul(Ut, mat_mul(p.A0, U))
    B = mat_mul(Ut, mat_mul(p.Ainf, U))
    return constant_pencil(A, B)


def jk_invariants(p: PencilAtPoint, sampler: SamplingPolicy,
                  mode: Mode = EXACT) -> JKInvariants:
    """Recover the JK block data of the evaluated pair (invariants only)."""
    rank, corank = pencil_rank_corank(p, sampler.spawn(1), mode)
    core = compute_core(p, sampler.spawn(2), mode, rank=rank)

    # Kronecker half-sizes from the kernel filtration dimension increments:
    # after m distinct regular parameters the span gains one dimension per
    # block of half-size >= m-1.
    dims = core.dim_sequence
    increments = []
    prev = 0
    for dm in dims:
        increments.append(dm - prev)
        prev = dm
    while increments and increments[-1] == 0:
        increments.pop()
    kronecker = []
    for m, delta in enumerate(increments):
        next_delta = increments[m + 1] if m + 1 < len(increments) else 0
        kronecker.extend([m] * (delta - next_delta))
    if len(kronecker) != corank:
        raise ToleranceError(
            f"Kronecker block count {len(kronecker)} disagrees with corank {corank}")

    # Jordan sizes from kernel powers of the spectrum's recursion operator on
    # the quotient; they do not depend on which regular pair it was built from.
    spectrum = compute_spectrum(p, core, sampler.spawn(3), mode)
    R = spectrum.recursion
    jordan: dict = {}
    for entry in spectrum.entries:
        lams = [entry.lam, conj(entry.lam)] if entry.paired else [entry.lam]
        for lam in lams:
            mu = lambda_to_moebius(lam, R.alpha, R.beta)
            jordan[lambda_key(lam)] = _jordan_sizes_at(R.matrix, mu, mode)
    inv = JKInvariants(corank=corank, kronecker_indices=sorted(kronecker), jordan=jordan)
    if inv.total_dimension() != p.dim:
        raise ToleranceError(
            f"JK dimension accounting failed: blocks sum to {inv.total_dimension()}, "
            f"ambient dimension is {p.dim}")
    return inv


def _jordan_sizes_at(R, mu, mode: Mode):
    """Pencil-level Jordan sizes at the eigenvalue mu of R (R sees each twice)."""
    m = len(R)
    shifted = shift(R, mu)
    kdims = [0]
    power = identity(m)
    for _ in range(m):
        power = mat_mul(power, shifted)
        kdims.append(m - mat_rank(power, mode))
        if kdims[-1] == kdims[-2]:
            break
    counts = []  # counts[s] = number of R-blocks of size >= s+1
    for s in range(1, len(kdims)):
        counts.append(kdims[s] - kdims[s - 1])
    sizes = []
    for s in range(len(counts)):
        nxt = counts[s + 1] if s + 1 < len(counts) else 0
        exact_count = counts[s] - nxt
        if exact_count % 2 != 0:
            raise ToleranceError(
                "odd Jordan block count on the quotient; tolerance inconsistency")
        sizes.extend([s + 1] * (exact_count // 2))
    return sorted(sizes)
