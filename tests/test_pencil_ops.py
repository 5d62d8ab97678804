from fractions import Fraction

import pytest

from bipencil.catalog import catalog_by_name
from bipencil.errors import SingularParameterError
from bipencil.exactlin import bilinear, mat_mul, mat_rank, mat_vec, subspace_dim
from bipencil import pencil
from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair
from bipencil.pencil import (compute_core, compute_spectrum, is_diagonalizable,
                             pencil_rank_corank, quotient_basis, quotient_form,
                             rank_at, recursion_operator)
from bipencil.sampling import SamplingPolicy
from bipencil.scalars import EXACT, INF
from bipencil.tensorfield import evaluate_pencil
from bipencil.toda import constant_lattice, toda_pencil, toda_pencil_at


@pytest.fixture
def sampler():
    return SamplingPolicy(7)


@pytest.fixture
def kronecker3():
    return assemble_jk_canonical_pair([KroneckerBlock(1)])


@pytest.fixture
def so3_shift_pencil():
    e = catalog_by_name()["so3_shift"]
    return evaluate_pencil(e.field0, e.field_inf, e.point)


def test_evaluate_pencil_so3_origin():
    e = catalog_by_name()["so3_shift"]
    p = evaluate_pencil(e.field0, e.field_inf, [Fraction(0)] * 3)
    assert all(v == 0 for row in p.A0 for v in row)
    # derivative in the third coordinate has (1,2)-entry 1: P^{12} = x3
    assert p.dA0[2][0][1] == 1
    # constant generator: derivatives vanish
    assert all(v == 0 for M in p.dAinf for row in M for v in row)


def test_evaluate_pencil_toda_example():
    p0, pinf = toda_pencil(2)
    p = evaluate_pencil(p0, pinf, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    assert p.A0[0][2] == 0       # {a1, b1}_0 = a1 b1 = 0
    assert p.Ainf[0][2] == 1     # {a1, b1}_inf = a1 = 1


def test_rank_at_kronecker_constant(kronecker3, sampler):
    for lam in (Fraction(0), Fraction(5, 7), Fraction(-3), INF):
        assert rank_at(kronecker3, lam) == 2
    assert pencil_rank_corank(kronecker3, sampler) == (2, 1)


def test_rank_at_shift_origin(so3_shift_pencil, sampler):
    assert rank_at(so3_shift_pencil, Fraction(0)) == 0
    assert rank_at(so3_shift_pencil, Fraction(1)) == 2
    assert pencil_rank_corank(so3_shift_pencil, sampler) == (2, 1)


def test_rank_at_toda_singular(sampler):
    p = toda_pencil_at(constant_lattice(2))
    assert rank_at(p, Fraction(0)) == 0
    assert pencil_rank_corank(p, sampler) == (2, 2)


def test_spectrum_kronecker_empty(kronecker3, sampler):
    assert compute_spectrum(kronecker3, sampler).is_empty()


def test_spectrum_so3_origin(so3_shift_pencil, sampler):
    spec = compute_spectrum(so3_shift_pencil, sampler)
    assert [ (e.lam, e.kernel_dim) for e in spec.entries ] == [(Fraction(0), 3)]


def test_spectrum_toda_singular(sampler, monkeypatch):
    p = toda_pencil_at(constant_lattice(2))
    spec = compute_spectrum(p, sampler)
    assert [(e.lam, e.kernel_dim) for e in spec.entries] == [(Fraction(0), 4)]
    # a caller that already has the pencil rank hands it over: same spectrum,
    # and the rank is not computed again
    def no_rank(*args, **kwargs):
        raise AssertionError("pencil rank recomputed")
    monkeypatch.setattr(pencil, "pencil_rank_corank", no_rank)
    assert compute_spectrum(p, sampler, rank=2) == spec


def test_core_kronecker(kronecker3, sampler):
    core = compute_core(kronecker3, sampler)
    # kernels (0, -lam, 1) for two values of lam span the last two coordinates
    assert core.dim == 2
    target = [[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert subspace_dim(core.basis + target) == 2


def test_core_so3(so3_shift_pencil, sampler):
    core = compute_core(so3_shift_pencil, sampler)
    assert core.dim == 1
    # the kernel of the constant form is the third coordinate direction
    assert core.basis[0][0] == 0 and core.basis[0][1] == 0 and core.basis[0][2] != 0


def test_core_toda_singular(sampler):
    # all regular kernels coincide at this point, so L is two-dimensional and
    # meets Ker P_0 (the whole space) in corank-many dimensions
    p = toda_pencil_at(constant_lattice(2))
    core = compute_core(p, sampler)
    assert core.dim == 2
    assert core.corank == 2


def test_quotient_form_regular_vs_singular(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = compute_core(p, sampler)
    qb = quotient_basis(p, core)
    assert len(qb) == 2
    B_reg = quotient_form(p, core, Fraction(3), qbasis=qb)
    assert mat_rank(B_reg) == 2                       # non-degenerate at regular lambda
    B_sing = quotient_form(p, core, Fraction(0), qbasis=qb)
    # kernel dimension = dim Ker P_0 - corank in the diagonalizable case
    assert len(qb) - mat_rank(B_sing) == 4 - 2


def test_quotient_dimension_zero_for_kronecker(kronecker3, sampler):
    core = compute_core(kronecker3, sampler)
    assert quotient_basis(kronecker3, core) == []


def test_recursion_operator_properties(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = compute_core(p, sampler)
    qb = quotient_basis(p, core)
    R = recursion_operator(p, core, Fraction(0), INF, qbasis=qb)
    # eigenvalue 0 with multiplicity 2 on the two-dimensional quotient
    assert R.matrix == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    # identity at equal parameters
    Rbb = recursion_operator(p, core, Fraction(2), Fraction(2), qbasis=qb)
    assert Rbb.matrix == [[1, 0], [0, 1]]
    # composition law R_a^b R_b^c = R_a^c
    a, b, c = Fraction(1), Fraction(2), Fraction(-3)
    Rab = recursion_operator(p, core, a, b, qbasis=qb).matrix
    Rbc = recursion_operator(p, core, b, c, qbasis=qb).matrix
    Rac = recursion_operator(p, core, a, c, qbasis=qb).matrix
    assert mat_mul(Rbc, Rab) == Rac
    # defining identity P_b(R u, v) = P_a(u, v) on the quotient
    Ba = quotient_form(p, core, a, qbasis=qb)
    Bb = quotient_form(p, core, b, qbasis=qb)
    m = len(qb)
    for u in range(m):
        for v in range(m):
            lhs = sum(Rab[i][u] * Bb[i][v] for i in range(m))
            assert lhs == Ba[u][v]
    # singular beta refused
    with pytest.raises(SingularParameterError):
        recursion_operator(p, core, Fraction(1), Fraction(0), qbasis=qb)


def test_is_diagonalizable_cases(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = compute_core(p, sampler)
    spec = compute_spectrum(p, sampler.spawn(1), core=core)
    flags, overall = is_diagonalizable(p, core, spec)
    assert overall and flags == {"0": True}

    # one 2x2 Jordan block at zero is not diagonalizable
    pj = assemble_jk_canonical_pair([KroneckerBlock(0), JordanBlock(Fraction(0), 2)])
    core_j = compute_core(pj, sampler.spawn(2))
    spec_j = compute_spectrum(pj, sampler.spawn(3), core=core_j)
    flags_j, overall_j = is_diagonalizable(pj, core_j, spec_j)
    assert not overall_j

    # pure Kronecker: vacuously diagonalizable
    pk = assemble_jk_canonical_pair([KroneckerBlock(1)])
    core_k = compute_core(pk, sampler.spawn(4))
    spec_k = compute_spectrum(pk, sampler.spawn(5), core=core_k)
    flags_k, overall_k = is_diagonalizable(pk, core_k, spec_k)
    assert overall_k and flags_k == {}
