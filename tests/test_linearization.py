from fractions import Fraction

import pytest

from bipencil import algebras
from bipencil.catalog import catalog_by_name
from bipencil.errors import PreconditionError
from bipencil.exactlin import mat_rank, subspace_dim
from bipencil.liealg import (COMPLEX, REAL, LinearPencil, TwoCocycle,
                             argument_shift_cocycle, is_cocycle)
from bipencil.roots import (classify, is_nondegenerate_linear,
                            linear_pencil_type, root_decomposition)
from bipencil.scalars import EXACT, QQi
from bipencil.tensorfield import evaluate_pencil
from bipencil.toda import constant_lattice, toda_pencil_at

from pipeline import linearize_at

F = Fraction


def catalog_pencil(entry_name):
    e = catalog_by_name()[entry_name]
    return evaluate_pencil(e.field0, e.field_inf, e.point)


def test_linearize_so3_recovers_algebra_and_cocycle():
    lp = linearize_at(catalog_pencil("so3_shift"), F(0))
    assert lp.algebra.field == REAL and lp.algebra.dim == 3
    # linearization of a linear structure is the structure itself
    g = algebras.so3()
    for i in range(3):
        for j in range(3):
            assert lp.algebra.structure_vector(i, j) == g.structure_vector(i, j)
    A = argument_shift_cocycle(g, [F(0), F(0), F(1)])
    assert lp.cocycle.matrix == A.matrix


def test_linearize_toda_singular_point():
    lp = linearize_at(toda_pencil_at(constant_lattice(2)), F(0))
    assert lp.algebra.dim == 4
    assert lp.algebra.verify_jacobi()
    # sl(2, R) + line: one-dimensional center, three-dimensional derived part
    assert len(lp.algebra.center()) == 1
    assert len(lp.algebra.derived_basis()) == 3


def test_linearize_bad_example_zero_bracket():
    lp = linearize_at(catalog_pencil("bad_example"), F(0))
    assert lp.algebra.dim == 3
    for i in range(3):
        for j in range(3):
            assert all(v == 0 for v in lp.algebra.structure_vector(i, j))


def test_linearize_regular_lambda_flagged_abelian():
    lp = linearize_at(catalog_pencil("so3_shift"), F(7))
    for i in range(lp.algebra.dim):
        for j in range(lp.algebra.dim):
            assert all(v == 0 for v in lp.algebra.structure_vector(i, j))
    # regular kernels sit inside the isotropic core, so the restricted form
    # vanishes; only the abelian structure carries information
    assert all(v == 0 for row in lp.cocycle.matrix for v in row)


def test_linearize_products_satisfy_identities():
    # Jacobi and the cocycle identity hold exactly for every linearization
    for name in ("so3_shift", "diamond_shift", "so31_shift"):
        lp = linearize_at(catalog_pencil(name), F(0))
        assert lp.algebra.verify_jacobi()
        assert is_cocycle(lp.algebra, lp.cocycle)


def test_root_decomposition_so3():
    g = algebras.so3()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(0), F(0), F(1)]))
    rd = root_decomposition(lp)
    assert rd.ok() and len(rd.pairs) == 1
    (root,) = rd.pairs[0].root,
    assert rd.pairs[0].reality() == "imaginary"


def test_root_decomposition_sl2_real_roots():
    g = algebras.sl2()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(1), F(0), F(0)]))
    rd = root_decomposition(lp)
    assert rd.ok() and len(rd.pairs) == 1
    assert rd.pairs[0].reality() == "real"
    assert rd.pairs[0].root == (F(2),) or rd.pairs[0].root == (F(-2),)


def test_root_decomposition_diamond():
    D = algebras.diamond()
    lp = LinearPencil(D, argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)]))
    rd = root_decomposition(lp)
    assert rd.ok() and len(rd.pairs) == 1
    # the root vanishes on the central direction and is imaginary on t
    root = rd.pairs[0].root
    assert rd.pairs[0].reality() == "imaginary"
    assert any(v != 0 for v in root)


def test_is_nondegenerate_cases():
    gc = algebras.so3_complex_real_form()
    lp = LinearPencil(gc, argument_shift_cocycle(gc, [F(0), F(0), F(1)] + [F(0)] * 3))
    ok, reason = is_nondegenerate_linear(lp)
    assert ok, reason

    s = algebras.sl2()
    nil = LinearPencil(s, argument_shift_cocycle(s, [F(0), F(1), F(0)]))
    ok, reason = is_nondegenerate_linear(nil)
    assert not ok and reason == "AdNotSemisimple"

    ab = algebras.abelian(3)
    M = [[F(0)] * 3 for _ in range(3)]
    M[0][1], M[1][0] = F(1), F(-1)
    zero = LinearPencil(ab, TwoCocycle(M))
    ok, reason = is_nondegenerate_linear(zero)
    assert not ok and reason == "RootsDependent"


def test_linear_pencil_type_examples():
    cases = [
        (algebras.so3(), [F(0), F(0), F(1)], (1, 0, 0)),
        (algebras.sl2(), [F(1), F(0), F(0)], (0, 1, 0)),
        (algebras.so3_complex_real_form(), [F(0), F(0), F(1), F(0), F(0), F(0)], (0, 0, 1)),
    ]
    for g, a, expected in cases:
        lp = LinearPencil(g, argument_shift_cocycle(g, a))
        rd = root_decomposition(lp)
        assert linear_pencil_type(rd).as_tuple() == expected


def test_classify_examples():
    g = algebras.so3()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(0), F(0), F(1)]))
    bd = classify(lp)
    assert bd.counts["so3"] == 1 and bd.abelian_dim == 0 and bd.central_ideal_dim == 0

    D = algebras.diamond()
    lpd = LinearPencil(D, argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)]))
    bdd = classify(lpd)
    assert bdd.counts["diamond"] == 1 and bdd.central_ideal_dim == 0


def test_classify_quotient_by_central_ideal():
    DD = algebras.diamond().direct_sum(algebras.diamond())
    ideal = [[F(0), F(0), F(1), F(0), F(0), F(0), F(-1), F(0)]]
    Q, _ = DD.quotient_by_central(ideal)
    a = [F(0)] * 7
    a[Q.labels.index("a.h")] = F(1)
    lp = LinearPencil(Q, argument_shift_cocycle(Q, a))
    rd = root_decomposition(lp)
    ok, reason = is_nondegenerate_linear(lp, data=rd)
    assert ok, reason
    bd = classify(lp, data=rd)
    assert bd.counts["diamond"] == 2
    assert bd.central_ideal_dim == 1 and bd.abelian_dim == 0
    # reconstruction identity
    assert bd.block_dim_total(REAL) - bd.central_ideal_dim + bd.abelian_dim == Q.dim


def test_classify_refuses_degenerate():
    s = algebras.sl2()
    nil = LinearPencil(s, argument_shift_cocycle(s, [F(0), F(1), F(0)]))
    with pytest.raises(PreconditionError):
        classify(nil)


def test_scale_invariance_of_verdicts():
    D = algebras.diamond()
    base = argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)])
    for c in (F(3), F(-2, 7), F(1, 9)):
        lp = LinearPencil(D, base.scale(c))
        rd = root_decomposition(lp)
        ok, _ = is_nondegenerate_linear(lp, data=rd)
        assert ok
        assert linear_pencil_type(rd).as_tuple() == (1, 0, 0)
        assert classify(lp, data=rd).counts["diamond"] == 1


def test_complex_field_classification():
    gc = algebras.so3_complex()
    lp = LinearPencil(gc, argument_shift_cocycle(gc, [F(0), F(0), F(1)]))
    rd = root_decomposition(lp)
    ok, _ = is_nondegenerate_linear(lp, data=rd)
    assert ok
    assert linear_pencil_type(rd).as_tuple() == (0, 0, 1)
    assert classify(lp, data=rd).counts["so3C"] == 1

    dc = algebras.diamond_complex()
    lpd = LinearPencil(dc, argument_shift_cocycle(dc, [F(0), F(0), F(1), F(0)]))
    rdd = root_decomposition(lpd)
    assert is_nondegenerate_linear(lpd, data=rdd)[0]
    assert classify(lpd, data=rdd).counts["diamond_C"] == 1
