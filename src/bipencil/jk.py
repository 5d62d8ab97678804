"""Jordan-Kronecker invariants of a skew pair, and the canonical assembler.

A pair of skew forms decomposes into Jordan blocks (one per spectrum value,
sizes recovered from kernel-power dimensions of a recursion operator, which
sees each block twice) and Kronecker blocks (half-sizes recovered from the
filtration of regular kernels inside the core L).  Jordan sizes are discrete
invariants that no rank threshold decides, so ``jk_invariants`` computes
exactly whatever the mode of the job: its kernel powers run on the rows of
R - mu I in its carrier, ints over Z, or (x, y) int pairs over Z[sqrt d]
for an irrational mu, and each rank is the pivot count of one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, ToleranceError
from .exactlin import Elimination, clear_matrix, mat_mul, shift, transpose
from .pencil import compute_core, compute_spectrum, lambda_to_moebius, pencil_rank_corank
from .scalars import INF, QQi, conj, is_inf, lambda_key
from .tensorfield import PencilAtPoint, gram


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
    lam: object       # Fraction | QQi (in Q(sqrt d)) | INF
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
    """U^T A U, U^T B U for a constant pencil (derivatives stay zero): both
    forms are one ``gram`` contraction over the nonzero cells."""
    n = len(U[0])
    pairs = [(r, s) for r in range(n) for s in range(r + 1, n)]
    forms = gram(p.dim, [[(i, j, 0, a) for i, j, a, _ in p.entries],
                         [(i, j, 0, b) for i, j, _, b in p.entries]], INF, transpose(U), pairs)
    return PencilAtPoint(n, [(r, s, a, b) for (r, s), a, b in zip(pairs, *forms)
                             if a != 0 or b != 0], [Fraction(0)] * n)


def jk_invariants(p: PencilAtPoint) -> JKInvariants:
    """Recover the JK block data of the evaluated pair (invariants only),
    exactly: ``p`` is a rational or quadratic pencil."""
    rank, corank = pencil_rank_corank(p)
    core = compute_core(p, rank=rank)

    # Kronecker half-sizes: after m distinct regular parameters the span of
    # their kernels has gained one dimension per block of half-size >= m-1.
    counts = _block_counts([0] + core.dim_sequence)
    kronecker = [m for m, count in enumerate(counts) for _ in range(count)]
    if len(kronecker) != corank:
        raise ToleranceError(
            f"Kronecker block count {len(kronecker)} disagrees with corank {corank}")

    # Jordan sizes from kernel powers of the spectrum's recursion operator on
    # the quotient; they do not depend on which regular pair it was built from.
    spectrum = compute_spectrum(p, core)
    R = spectrum.recursion
    jordan: dict = {}
    for entry in spectrum.entries:
        lams = [entry.lam, conj(entry.lam)] if entry.paired else [entry.lam]
        for lam in lams:
            mu = lambda_to_moebius(lam, R.alpha, R.beta)
            jordan[lambda_key(lam)] = _jordan_sizes_at(R.matrix, mu)
    inv = JKInvariants(corank=corank, kronecker_indices=sorted(kronecker), jordan=jordan)
    if inv.total_dimension() != p.dim:
        raise ToleranceError(
            f"JK dimension accounting failed: blocks sum to {inv.total_dimension()}, "
            f"ambient dimension is {p.dim}")
    return inv


def _block_counts(dims):
    """counts[s], the number of blocks that stop growing after step s of a
    filtration that grows by one dimension per growing block: step s adds
    dims[s + 1] - dims[s], and nothing after the last step."""
    steps = [b - a for a, b in zip(dims, dims[1:])] + [0]
    return [a - b for a, b in zip(steps, steps[1:])]


def _jordan_sizes_at(R, mu):
    """Pencil-level Jordan sizes at the eigenvalue mu of R (R sees each twice),
    from the kernel dimensions of the powers of N = R - mu I.  N is cleared
    once into its carrier's rows (``clear_matrix``), over Z or Z[sqrt d] as
    mu asks, the powers are taken on those rows, and each rank is that of
    one ``Elimination`` of its power's rows: a common factor changes no rank."""
    m = len(R)
    K, N, _ = clear_matrix(shift(R, mu))
    kdims, power = [0], N
    while True:
        kdims.append(m - Elimination([K.divided(row) for row in power], K).rank)
        if kdims[-1] == kdims[-2] or len(kdims) > m:
            break
        power = mat_mul(power, N, K)
    counts = _block_counts(kdims)
    if any(count % 2 for count in counts):
        raise ToleranceError("odd Jordan block count on the quotient; tolerance inconsistency")
    return [s + 1 for s, count in enumerate(counts) for _ in range(count // 2)]
