"""Full singular-point verdicts.

analyze_point runs: evaluate -> rank/corank -> core -> spectrum (empty =
Regular) -> Kronecker check at walk points -> per spectrum value: the
kernel and its form, each computed once -> diagonalizability from the
form's rank -> linearization with the form as cocycle -> roots.analyze_linear,
the per-lambda analysis the ``linear`` command shares (roots, non-degeneracy,
blocks, and the type read off the blocks) -> the verdict, read once from the
first degeneracy reason, and the totals.  Degeneracy reasons are
machine-readable; float-mode borderline decisions attach warnings and never
silently flip a verdict.

Both pencil-level checks read one walk of exact pencils at the rational
points of ``pencil.point_walk``, each evaluated once: the certificate of an
undeclared rank reads the first 5, the Kronecker check the first 3, and
takes the exact core at the first of those with the point's rank.  No point
is random, so a report depends on its pencil, point and mode alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, RankDeficientPointError
from .linearization import kernel_form, linearize
from .pencil import (Spectrum, compute_core, compute_spectrum, is_diagonalizable,
                     kernel_basis, pencil_rank_corank, point_walk, quotient_dim)
from .roots import BlockDecomposition, WilliamsonType, analyze_linear
from .scalars import EXACT, Mode, format_scalar, lambda_key
from .tensorfield import PoissonTensorField, evaluate_pencil


@dataclass
class PerLambdaReport:
    lam: object
    kernel_dim: int
    paired: bool
    diagonalizable: bool | None = None
    linear_nondegenerate: bool | None = None
    degeneracy_reason: str | None = None
    type: WilliamsonType | None = None
    blocks: BlockDecomposition | None = None

    def to_json_dict(self):
        return {
            "lambda": format_scalar(self.lam),
            "kernel_dim": self.kernel_dim,
            "conjugate_pair": self.paired,
            "diagonalizable": self.diagonalizable,
            "linear_nondegenerate": self.linear_nondegenerate,
            "degeneracy_reason": self.degeneracy_reason,
            "type": self.type.to_json_dict() if self.type else None,
            "blocks": self.blocks.to_json_dict() if self.blocks else None,
        }


@dataclass
class Verdict:
    kind: str                 # "Regular" | "NonDegenerate" | "Degenerate"
    reason: str | None = None

    def to_json_dict(self):
        return {"kind": self.kind, "reason": self.reason}


@dataclass
class SingularPointReport:
    point: list
    pencil_rank: int
    corank: int
    spectrum: Spectrum
    verdict: Verdict
    per_lambda: list
    total_type: WilliamsonType | None
    point_rank: int
    warnings: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "point": [format_scalar(x) for x in self.point],
            "pencil_rank": self.pencil_rank,
            "corank": self.corank,
            "spectrum": [{"lambda": format_scalar(e.lam), "kernel_dim": e.kernel_dim,
                          "conjugate_pair": e.paired} for e in self.spectrum.entries],
            "verdict": self.verdict.to_json_dict(),
            "per_lambda": [p.to_json_dict() for p in self.per_lambda],
            "total_type": self.total_type.to_json_dict() if self.total_type else None,
            "point_rank": self.point_rank,
            "warnings": list(self.warnings),
        }


def analyze_point(field0: PoissonTensorField, field_inf: PoissonTensorField,
                  point, mode: Mode = EXACT,
                  declared_rank: int | None = None) -> SingularPointReport:
    """Decide whether the induced singularity at ``point`` is non-degenerate,
    and of which Williamson type.  Without a ``declared_rank`` the pencil
    rank is certified by sampling the first points of ``point_walk``."""
    warnings: list = []

    pt = [Fraction(x) if isinstance(x, int) else x for x in point]
    p = evaluate_pencil(field0, field_inf, pt, exact_required=mode.is_exact)

    rank_walk, kronecker_walk = itertools.tee(map(
        functools.partial(evaluate_pencil, field0, field_inf), point_walk(field0.dim)))

    rank, corank = pencil_rank_corank(p, mode, warnings)
    _certify_pencil_rank(rank_walk, rank, declared_rank, warnings)

    core = compute_core(p, mode, rank=rank)
    point_rank = core.dim - corank
    spectrum = compute_spectrum(p, core, mode, warnings)

    if spectrum.is_empty():
        return SingularPointReport(
            point=pt, pencil_rank=rank, corank=corank, spectrum=spectrum,
            verdict=Verdict("Regular"), per_lambda=[], total_type=None,
            point_rank=point_rank, warnings=warnings)
    _kronecker_spot_check(kronecker_walk, rank, warnings)

    per_lambda = []
    total = WilliamsonType()
    for entry in spectrum.entries:
        rep = PerLambdaReport(lam=entry.lam, kernel_dim=entry.kernel_dim,
                              paired=entry.paired)
        per_lambda.append(rep)
        ker = kernel_basis(p, entry.lam, mode)
        form = kernel_form(p, entry.lam, ker)
        rep.diagonalizable = is_diagonalizable(form, corank, mode)
        if not rep.diagonalizable:
            rep.degeneracy_reason = f"NonDiagonalizable({lambda_key(entry.lam)})"
            continue
        lin = analyze_linear(linearize(p, entry.lam, ker, form, mode), mode)
        rep.linear_nondegenerate = lin.reason is None
        if lin.reason is not None:
            rep.degeneracy_reason = f"{lin.reason}({lambda_key(entry.lam)})"
            continue
        rep.type, rep.blocks = lin.type, lin.blocks
        total = total + rep.type

    reason = next((rep.degeneracy_reason for rep in per_lambda if rep.degeneracy_reason), None)
    verdict = Verdict("Degenerate" if reason else "NonDegenerate", reason)
    if reason is None:
        expected = rank // 2 - point_rank
        got = total.ke + total.kh + 2 * total.kf
        if got != expected:
            msg = (f"type count identity violated: ke+kh+2kf = {got}, "
                   f"expected rank/2 - point_rank = {expected}")
            if mode.is_exact:
                raise PreconditionError(msg)
            warnings.append(msg)

    return SingularPointReport(
        point=pt, pencil_rank=rank, corank=corank, spectrum=spectrum,
        verdict=verdict, per_lambda=per_lambda, total_type=None if reason else total,
        point_rank=point_rank, warnings=warnings)


def _certify_pencil_rank(walk, rank, declared_rank, warnings):
    if declared_rank is not None:
        if rank < declared_rank:
            raise RankDeficientPointError(
                f"pencil rank {rank} at the point is below the declared rank "
                f"{declared_rank}")
        return
    best = max([rank] + [pencil_rank_corank(q)[0] for q in itertools.islice(walk, 5)])
    if best > rank:
        raise RankDeficientPointError(
            f"pencil rank {rank} at the point is below the sampled pencil rank {best}")
    warnings.append("pencil rank certified by sampling the first 5 walk points only; "
                    "declare a rank to make this check exact")


def _kronecker_spot_check(walk, rank, warnings):
    """L^perp / L should be zero at a walk point (Kronecker-type pencil).

    At a point of maximal rank, Kronecker type holds on a Zariski-open set
    (the rank drops over lambda in CP^1 project to a closed one), so it is a
    fact about the pencil: one walk point decides it, and a Regular point's
    empty spectrum at its certified rank proves it already.
    Up to the first 3 pencils of ``walk`` are read: the exact core is taken
    at the first that has the point's rank ``rank``, shown maximal by
    _certify_pencil_rank, and a walk point of lower rank is skipped.
    """
    for q in itertools.islice(walk, 3):
        try:
            core = compute_core(q, EXACT, rank=rank)
        except RankDeficientPointError:
            continue
        if quotient_dim(q, core) != 0:
            warnings.append(
                "a walk point has non-empty spectrum; the pencil may not be "
                "of Kronecker type, in which case verdicts are unreliable")
        return
