"""The generic-point decisions by their earlier, longer rules, kept as the
reference the early stops of ``pencil`` and ``toda`` must agree with.

- the pencil rank as the maximum over d + 1 distinct rationals and infinity,
  enough because the rank minors have degree <= d in lambda;
- the core drawn until its span is unchanged for two consecutive kernels and
  at least dim-L kernels were drawn;
- the Lax blocks built from one 2n x 2n ``mat_vec`` per column, and every
  block's characteristic polynomial root-found in exact mode.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from bipencil.exactlin import basis_union, char_poly, mat_vec, poly_roots_hybrid, to_numpy
from bipencil.pencil import IsotropicCore, rank_at, regular_parameters
from bipencil.scalars import EXACT, INF, is_exact_scalar
from bipencil.toda import LaxSpectrumEntry, lax_matrix


def rank_corank_over_d_plus_two(p, sampler, mode=EXACT):
    samples = sampler.distinct_rationals(p.dim + 1) + [INF]
    best = max(rank_at(p, lam, mode) for lam in samples)
    return best, p.dim - best


def core_until_two_idle(p, sampler, mode=EXACT, *, rank):
    basis, params, dims, stable = [], [], [], 0
    while not (stable >= 2 and len(params) >= len(basis)):
        lam, ker = regular_parameters(p, sampler, 1, mode, rank=rank, exclude=params)[0]
        new_basis = basis_union(basis, ker, mode)
        params.append(lam)
        dims.append(len(new_basis))
        stable = stable + 1 if len(new_basis) == len(basis) else 0
        basis = new_basis
    return IsotropicCore(basis=basis, regular_params=params, dim_sequence=dims,
                         corank=p.dim - rank)


def shift_block_by_mat_vec(lax, sign):
    n, m = lax.n, 2 * lax.n
    block = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        u = [Fraction(0)] * m
        u[j] = Fraction(1)
        u[j + n] = Fraction(sign)
        img = mat_vec(lax.matrix, u)
        for i in range(n):
            block[i][j] = img[i]
    return block


def lax_spectrum_by_roots(pt, mode=EXACT):
    lax = lax_matrix(pt)
    out = []
    for which, sign in (("periodic", 1), ("antiperiodic", -1)):
        block = shift_block_by_mat_vec(lax, sign)
        if mode.is_exact:
            roots = poly_roots_hybrid(char_poly(block))
            out += [LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                     multiplicity=mult)
                    for mu, mult in roots if mult >= 2 and is_exact_scalar(mu)]
            out += [LaxSpectrumEntry(lam=-complex(mu).real, lax_eigenvalue=complex(mu).real,
                                     which=which, multiplicity=mult)
                    for mu, mult in roots if mult >= 2 and not is_exact_scalar(mu)]
            continue
        vals = sorted(np.linalg.eigvalsh(to_numpy(block).real))
        scale = max(1.0, max(abs(v) for v in vals))
        clusters = []
        for v in vals:
            if clusters and abs(v - clusters[-1][-1]) <= 100 * mode.tol * scale:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        out += [LaxSpectrumEntry(lam=-float(np.mean(cl)), lax_eigenvalue=float(np.mean(cl)),
                                 which=which, multiplicity=len(cl))
                for cl in clusters if len(cl) >= 2]
    out.sort(key=lambda e: complex(e.lam).real)
    return out
