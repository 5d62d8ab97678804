"""The generic-point decisions by their earlier, longer rules, kept as the
reference the early stops of ``pencil`` and ``toda`` must agree with.

- the pencil rank as the maximum over the first d + 1 values of the height
  walk and infinity, enough because the rank minors have degree <= d in
  lambda;
- the core walked until its span is unchanged for two consecutive kernels and
  at least dim-L kernels were taken, the kernels joined by the greedy rank
  loop of ``oracles.bareiss``;
- the Lax blocks built from one 2n x 2n ``mat_vec`` per column, and in exact
  mode the multiple roots of each block's characteristic polynomial chi
  (Faddeev-LeVerrier) found as the roots of gcd(chi, chi') by Euclid, each
  one more time than there: chi's simple roots, irrational at most points,
  are never sought.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from bipencil.exactlin import char_poly, mat_vec, poly_deriv, poly_roots_hybrid, to_numpy
from bipencil.pencil import height_walk, rank_at, regular_parameters
from bipencil.scalars import EXACT, INF
from bipencil.toda import LaxSpectrumEntry

from oracles.bareiss import basis_union
from oracles.euclid import poly_gcd
from oracles.toda import lax_matrix


def rank_corank_over_d_plus_two(p, mode=EXACT):
    samples = list(islice(height_walk(), p.dim + 1)) + [INF]
    best = max(rank_at(p, lam, mode) for lam in samples)
    return best, p.dim - best


class Core(NamedTuple):
    basis: list
    regular_params: list
    dim_sequence: list


def core_until_two_idle(p, mode=EXACT, *, rank):
    basis, params, dims, stable, walk = [], [], [], 0, height_walk()
    while not (stable >= 2 and len(params) >= len(basis)):
        lam, ker = regular_parameters(p, walk, mode, rank=rank)
        new_basis = basis_union(basis, ker, mode)
        params.append(lam)
        dims.append(len(new_basis))
        stable = stable + 1 if len(new_basis) == len(basis) else 0
        basis = new_basis
    return Core(basis, params, dims)


def shift_block_by_mat_vec(L, sign):
    m = len(L)
    n = m // 2
    block = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        u = [Fraction(0)] * m
        u[j] = Fraction(1)
        u[j + n] = Fraction(sign)
        img = mat_vec(L, u)
        for i in range(n):
            block[i][j] = img[i]
    return block


def lax_spectrum_by_roots(pt, mode=EXACT):
    lax = lax_matrix(pt)
    out = []
    for which, sign in (("periodic", 1), ("antiperiodic", -1)):
        block = shift_block_by_mat_vec(lax, sign)
        if mode.is_exact:
            chi = char_poly(block)
            g = poly_gcd(chi, poly_deriv(chi))
            out += [LaxSpectrumEntry(lam=-mu, lax_eigenvalue=mu, which=which,
                                     multiplicity=mult + 1)
                    for mu, mult in poly_roots_hybrid(g)]
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
