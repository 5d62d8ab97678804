"""The per-point pipeline rank -> core -> spectrum -> (kernel, form) at a
spectrum value, for tests that start from a pencil, and ``forbid_floats``,
which makes every float decision of the library fail."""

import importlib
import pkgutil

import numpy as np
import pytest

import bipencil
from bipencil import exactlin
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


class _NoLinalg:
    def __getattr__(self, name):
        pytest.fail(f"exact mode called numpy.linalg.{name}")


def forbid_floats(monkeypatch):
    """Make ``exactlin.to_numpy``, wherever a library module holds it,
    ``np.roots`` and every ``np.linalg`` function fail the test: every float
    rank, kernel, solve and eigenvalue of the library passes through one of
    them.  ``pytest.fail`` raises no ``Exception``, so no library handler
    catches it."""
    def fail(*args, **kwargs):
        pytest.fail("exact mode converted a matrix to floats")

    for info in pkgutil.iter_modules(bipencil.__path__):
        module = importlib.import_module(f"bipencil.{info.name}")
        if getattr(module, "to_numpy", None) is exactlin.to_numpy:
            monkeypatch.setattr(module, "to_numpy", fail)
    monkeypatch.setattr(np, "roots", lambda *args: pytest.fail("exact mode called numpy.roots"))
    monkeypatch.setattr(np, "linalg", _NoLinalg())
