"""The per-point pipeline rank -> core -> spectrum -> (kernel, form) at a
spectrum value, for tests that start from a pencil."""

from bipencil.linearization import kernel_form, linearize
from bipencil.pencil import (compute_core, compute_spectrum, is_diagonalizable,
                             kernel_basis, pencil_rank_corank)
from bipencil.scalars import EXACT, lambda_key


def core_of(p, mode=EXACT):
    rank, _ = pencil_rank_corank(p, mode)
    return compute_core(p, mode, rank=rank)


def spectrum_of(p, mode=EXACT):
    return compute_spectrum(p, core_of(p, mode), mode)


def linearize_at(p, lam, mode=EXACT):
    ker = kernel_basis(p, lam, mode)
    return linearize(p, lam, ker, kernel_form(p, lam, ker), mode)


def diagonalizable_flags(p, spectrum, mode=EXACT):
    """{lambda key: is_diagonalizable} over the spectrum's entries."""
    flags = {}
    for entry in spectrum.entries:
        ker = kernel_basis(p, entry.lam, mode)
        form = kernel_form(p, entry.lam, ker)
        flags[lambda_key(entry.lam)] = is_diagonalizable(form, spectrum.corank, mode)
    return flags
