"""The per-point pipeline rank -> core -> spectrum, for tests that start from a pencil."""

from bipencil.pencil import compute_core, compute_spectrum, pencil_rank_corank


def core_of(p, sampler):
    rank, _ = pencil_rank_corank(p, sampler.spawn(1))
    return compute_core(p, sampler, rank=rank)


def spectrum_of(p, sampler):
    return compute_spectrum(p, core_of(p, sampler.spawn(2)), sampler)
