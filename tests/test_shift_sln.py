"""Argument-shift pencils on sl(n, R), n = 3..6, at points whose Williamson
type has a closed form (see ``oracles.sln``), analyzed in exact mode with the
declared rank n^2 - n."""

import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from bipencil import pencil
from bipencil.analyzer import analyze_point
from bipencil.exactlin import mat_mul
from bipencil.scalars import EXACT, float_mode

from oracles.sln import (ShiftCase, block_diagonal, covector, eigenvalues_block_diagonal,
                         has_triple_coincidence, shift_case, sl, unimodular)

F = Fraction


def analyze(case: ShiftCase, mode=EXACT):
    e = case.entry()
    return analyze_point(e.field0, e.field_inf, case.point, mode,
                         declared_rank=case.n ** 2 - case.n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sl_n_is_a_lie_algebra(n):
    g = sl(n)
    assert g.dim == n * n - 1 and g.jacobi_violation() is None


@pytest.mark.parametrize("n, r, b, seed", [
    (3, 3, 0, 1), (3, 1, 1, 1), (4, 2, 1, 1), (4, 0, 2, 1), (4, 4, 0, 1), (5, 5, 0, 1),
    (3, 3, 0, 2), (3, 1, 1, 2), (3, 3, 0, 3), (3, 1, 1, 3)])
def test_shift_point_has_the_closed_form_type(n, r, b, seed):
    case = shift_case(n, b, seed)
    assert case.type == (b, r * (r - 1) // 2, b * r + b * (b - 1))
    rep = analyze(case)
    assert rep.verdict.kind == "NonDegenerate", rep.verdict
    assert rep.point_rank == 0
    assert astuple(rep.total_type) == case.type
    assert rep.warnings == []


@pytest.mark.parametrize("n, b", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (6, 0)])
def test_float_mode_gives_the_closed_form_type(n, b):
    # exact mode's verdict, NonDegenerate, and type: an ad operator restricted
    # to a joint eigenspace of those before it is zero up to rounding there,
    # and a float kernel cuts singular values at tol * max(sigma_max, 1)
    case = shift_case(n, b, 1)
    rep = analyze(case, float_mode())
    assert rep.verdict.kind == "NonDegenerate", rep.verdict
    assert astuple(rep.total_type) == case.type


def test_a_triple_coincidence_is_degenerate():
    # x = 2a: every eigenvalue of x + lambda a meets the other two at lambda = -2
    A = block_diagonal([1, 2, -3], [])
    eigs = eigenvalues_block_diagonal([1, 2, -3], [])
    assert has_triple_coincidence([2 * z for z in eigs], eigs)
    U, Ui = unimodular(3, random.Random(5))
    Ac = mat_mul(mat_mul(U, A), Ui)
    case = ShiftCase(3, covector([[2 * v for v in row] for row in Ac], 3), covector(Ac, 3), None)
    rep = analyze(case)
    assert rep.verdict.kind == "Degenerate" and rep.verdict.reason == "RootsDependent(-2)"


def test_the_origin_is_degenerate():
    # at x = 0, Ker A_a is a 2-dimensional Cartan subalgebra, too small for
    # the 3 independent roots a non-degenerate rank-0 point needs
    A = block_diagonal([1, 2, -3], [])
    rep = analyze(ShiftCase(3, [F(0)] * 8, covector(A, 3), None))
    assert rep.verdict.kind == "Degenerate" and rep.verdict.reason == "RootsDependent(0)"


def test_every_root_of_the_recursion_operator_at_sl6_is_exact(monkeypatch):
    # R is built between two parameters of small height, so its characteristic
    # polynomial has small coefficients: all 14 rational spectrum values are
    # in the exact root list, none comes through the float snap
    roots, real = [], pencil.eigenvalues
    monkeypatch.setattr(pencil, "eigenvalues", lambda M, mode: roots.append(real(M, mode)) or roots[-1])
    case = shift_case(6, 0, 1)
    rep = analyze(case)
    assert rep.verdict.kind == "NonDegenerate" and astuple(rep.total_type) == case.type
    (exact, floats), = roots
    assert len(exact) == len(rep.spectrum.entries) == 14 and floats == []
