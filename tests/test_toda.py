from fractions import Fraction

import pytest

from bipencil.analyzer import AnalysisParams, analyze_point
from bipencil.errors import PreconditionError
from bipencil.exactlin import char_poly, mat_rank, mat_vec, poly_roots_hybrid
from bipencil.linearization import kernel_form, linearize
from bipencil.poly import Poly
from bipencil import toda
from bipencil.sampling import SamplingPolicy
from bipencil.scalars import EXACT, float_mode
from bipencil.tensorfield import evaluate_pencil
from bipencil.toda import (TodaPoint, lax_matrix, lax_recursion_check, make_singular_point,
                           random_point, toda_pencil, toda_spectrum_via_lax)

from oracles.fields import add, verify_jacobi
from oracles.stops import lax_spectrum_by_roots, shift_block_by_mat_vec
from oracles.toda import (casimir_gradient, constant_lattice, double_eigensolutions,
                          fold_to_covector, kernel_product, toda_kernel_algebra,
                          toda_pencil_at, wronskian)
from pipeline import spectrum_of

F = Fraction


def test_pencil_tables_and_structure():
    p0, pinf = toda_pencil(3)
    d = 6
    a1, b1, b2 = Poly.variable(d, 0), Poly.variable(d, 3), Poly.variable(d, 4)
    assert p0.entry(0, 3) == a1 * b1              # {a1, b1} = a1 b1
    assert p0.entry(0, 4) == -(a1 * b2)           # {a1, b2} = -a1 b2
    assert p0.entry(3, 4) == -2 * a1 * a1         # {b1, b2} = -2 a1^2
    assert pinf.entry(0, 3) == a1
    assert pinf.entry(0, 4) == -a1


def test_pencil_jacobi_and_compatibility_small_n():
    for n in (2, 3):
        p0, pinf = toda_pencil(n)
        assert verify_jacobi(p0)
        assert verify_jacobi(pinf)
        assert verify_jacobi(add(p0, pinf))


def test_n2_wraparound_entries():
    # the two directed (a1, a2) contributions cancel; the (b1, b2) entries combine
    p0, _ = toda_pencil(2)
    assert p0.entry(0, 1).is_zero()
    d = 4
    a1, a2 = Poly.variable(d, 0), Poly.variable(d, 1)
    assert p0.entry(2, 3) == 2 * a2 * a2 - 2 * a1 * a1


def test_bihamiltonian_vector_field_identity():
    # P_0 dH_0 = P_inf dH_inf as an exact polynomial identity pins the table
    for n in (2, 3):
        p0, pinf = toda_pencil(n)
        d = 2 * n
        h0 = [Poly.zero(d)] * n + [Poly.constant(d, 1)] * n
        hinf = [2 * Poly.variable(d, i) for i in range(n)] + \
               [Poly.variable(d, n + i) for i in range(n)]
        for i in range(d):
            lhs = Poly.zero(d)
            rhs = Poly.zero(d)
            for j in range(d):
                lhs = lhs + p0.entry(i, j) * h0[j]
                rhs = rhs + pinf.entry(i, j) * hinf[j]
            assert lhs == rhs


def test_common_casimir_annihilation():
    sp = SamplingPolicy(8)
    for n in (2, 3, 4):
        p0, pinf = toda_pencil(n)
        for s in range(3):
            pt = random_point(n, 50 + s + 10 * n)
            p = evaluate_pencil(p0, pinf, pt.coordinates())
            dC = casimir_gradient(pt)
            for lam in (F(0), F(5, 3), F(-2)):
                assert all(v == 0 for v in mat_vec(p.matrix_at(lam), dC))


def test_phase_space_constraint():
    with pytest.raises(PreconditionError):
        TodaPoint(n=2, a=[F(1), F(-1)], b=[F(0), F(0)])
    with pytest.raises(PreconditionError):
        TodaPoint(n=1, a=[F(1)], b=[F(0)])


def test_lax_matrix_constant_lattice():
    pt = constant_lattice(2)
    L = lax_matrix(pt)
    assert all(L.matrix[i][i] == 0 for i in range(4))
    roots = poly_roots_hybrid(char_poly(L.matrix))
    assert all(isinstance(r, Fraction) for r, _ in roots)
    assert {(str(r), m) for r, m in roots} == {("2", 1), ("0", 2), ("-2", 1)}


def test_lax_shift_property():
    # adding a constant to b shifts the eigenvalues; the certified pencil
    # parameters move the opposite way (the lambda-slice at (a, b) is the
    # zero-slice at (a, b + lambda))
    c = F(5, 2)
    base = toda_spectrum_via_lax(constant_lattice(2))
    shifted = toda_spectrum_via_lax(constant_lattice(2, b=c))
    assert [e.lax_eigenvalue for e in base] == [e.lax_eigenvalue - c for e in shifted]
    assert [e.lam for e in shifted] == [e.lam - c for e in base]


def test_lax_doubles_n2_n3():
    spec2 = toda_spectrum_via_lax(constant_lattice(2))
    assert [(e.lam, e.which, e.multiplicity) for e in spec2] == [(F(0), "antiperiodic", 2)]
    spec3 = toda_spectrum_via_lax(constant_lattice(3))
    assert {(e.lax_eigenvalue, e.which) for e in spec3} == \
        {(F(1), "antiperiodic"), (F(-1), "periodic")}


def _lax_points():
    """A random, a singular and the symmetric (a_i = 1, b_i = 0) point for
    n = 2..8."""
    for n in range(2, 9):
        yield random_point(n, 40 + n)
        yield make_singular_point(n, seed=n)
        yield constant_lattice(n)


def test_lax_blocks_and_spectrum_agree_with_the_longer_rules():
    for pt in _lax_points():
        lax = lax_matrix(pt)
        assert lax.periodic_block() == shift_block_by_mat_vec(lax, 1), pt
        assert lax.antiperiodic_block() == shift_block_by_mat_vec(lax, -1), pt
        for mode in (EXACT, float_mode(1e-9)):
            assert toda_spectrum_via_lax(pt, mode) == lax_spectrum_by_roots(pt, mode), (pt, mode)


def test_exact_lax_oracle_skips_squarefree_blocks(monkeypatch):
    # at a random point neither block has a multiple eigenvalue, so no root is sought
    monkeypatch.setattr(toda, "poly_roots_hybrid",
                        lambda chi: pytest.fail("a squarefree block was root-found"))
    assert toda_spectrum_via_lax(random_point(5, 3)) == []


def test_generic_point_empty_both_oracles():
    sp = SamplingPolicy(2)
    for n in (2, 3, 4):
        for s in (5, 6):
            pt = random_point(n, 90 + s + n)
            assert toda_spectrum_via_lax(pt) == []
            p = toda_pencil_at(pt)
            assert spectrum_of(p, sp.spawn(s + n)).is_empty()


def test_pencil_lax_agreement_on_singular_points():
    sp = SamplingPolicy(3)
    for n, seed in ((2, 1), (3, 2), (4, 5)):
        pt = make_singular_point(n, seed=seed, antiperiodic=True, lam=F(1, 3))
        lax_vals = sorted(str(e.lam) for e in toda_spectrum_via_lax(pt))
        p = toda_pencil_at(pt)
        spec = spectrum_of(p, sp.spawn(10 + n))
        assert sorted(str(e.lam) for e in spec.entries) == lax_vals


def test_kernel_product_properties():
    pt = constant_lattice(2)
    xi, eta, which = double_eigensolutions(pt, F(0))
    assert which == "antiperiodic"
    assert lax_recursion_check(pt, xi, F(0))
    p = toda_pencil_at(pt)
    X = fold_to_covector(pt, *kernel_product(xi, xi))
    Y = fold_to_covector(pt, *kernel_product(eta, eta))
    Z = fold_to_covector(pt, *kernel_product(xi, eta))
    dC = casimir_gradient(pt)
    for v in (X, Y, Z):
        assert all(x == 0 for x in mat_vec(p.matrix_at(F(0)), v))
    # dC completes an independent quadruple
    assert mat_rank([X, Y, Z, dC]) == 4
    # bilinearity of the product
    s = [x + y for x, y in zip(xi, eta)]
    lhs = kernel_product(s, s)[0]
    rhs = [a + 2 * c + b for a, c, b in zip(kernel_product(xi, xi)[0],
                                            kernel_product(xi, eta)[0],
                                            kernel_product(eta, eta)[0])]
    assert lhs == rhs


def test_wronskian_properties():
    pt = constant_lattice(2)
    xi, eta, _ = double_eigensolutions(pt, F(0))
    assert wronskian(pt, xi, xi) == 0
    W = wronskian(pt, xi, eta)
    assert W != 0
    # constant across all double-period indices
    for i in range(4):
        assert wronskian(pt, xi, eta, i) == W


def check_kernel_algebra(pt, lam):
    """linearize on the closed-form basis (X, Y, Z, dC) of Ker P_lambda computes
    the paper's bracket table and pairings, and the form has the closed-form
    two-dimensional kernel.  Returns the parity class of the eigen-solutions."""
    k = toda_kernel_algebra(pt, lam)
    assert k.wronskian != 0
    p = toda_pencil_at(pt)
    assert mat_rank(k.basis) == 4
    assert all(v == 0 for u in k.basis for v in mat_vec(p.matrix_at(lam), u))
    form = kernel_form(p, lam, k.basis)
    lp = linearize(p, lam, k.basis, form)

    def table(g):
        return [g.structure_vector(i, j) for i in range(4) for j in range(4)]

    assert table(lp.algebra) == table(k.pencil.algebra), (pt.n, lam)
    assert lp.cocycle.matrix == k.pencil.cocycle.matrix, (pt.n, lam)
    assert mat_rank(form) == 2
    assert all(v == 0 for u in k.form_kernel for v in mat_vec(form, u))
    return k.which


def test_kernel_algebra_check_singular_points():
    cases = [(constant_lattice(2), F(0), "antiperiodic"),
             (constant_lattice(3), F(-1), "antiperiodic"),
             (constant_lattice(3), F(1), "periodic"),
             (make_singular_point(2, seed=1, antiperiodic=True, lam=F(2, 3)), F(2, 3),
              "antiperiodic"),
             (make_singular_point(4, seed=5, antiperiodic=True, lam=F(-1, 2)), F(-1, 2),
              "antiperiodic")]
    for pt, lam, which in cases:
        assert check_kernel_algebra(pt, lam) == which, (pt.n, lam)


def test_kernel_algebra_check_scaled_solutions():
    # eta is rescaled by the orthogonalization; the table scales with W
    pt = make_singular_point(3, seed=2, antiperiodic=False, lam=F(0))
    assert check_kernel_algebra(pt, F(0)) == "periodic"


def test_exact_analysis_flags_irrational_roots():
    """The roots at this point are irrational, so exact mode decides the root
    decomposition in floating point and must say so."""
    n = 4
    p0, pinf = toda_pencil(n)
    rep = analyze_point(p0, pinf, make_singular_point(n, seed=1).coordinates(),
                        AnalysisParams(declared_rank=2 * n - 2))
    assert rep.verdict.kind == "NonDegenerate"
    assert [w for w in rep.warnings if "roots at spectrum value" in w] == [
        "roots at spectrum value 0 are irrational; "
        "root decomposition verified with float tolerance 1e-9"]


def test_analyze_singular_lattice_points_elliptic():
    for n, seed, lam in ((2, 1, F(2, 3)), (3, 2, F(0))):
        pt = make_singular_point(n, seed=seed, antiperiodic=(n == 2), lam=lam)
        p0, pinf = toda_pencil(n)
        rep = analyze_point(p0, pinf, pt.coordinates(),
                            AnalysisParams(seed=4, declared_rank=2 * n - 2))
        assert rep.verdict.kind == "NonDegenerate"
        t = rep.total_type
        assert t.kh == 0 and t.kf == 0 and t.ke >= 1
