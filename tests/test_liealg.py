from fractions import Fraction

import pytest

from bipencil import algebras
from bipencil.errors import PreconditionError
from bipencil.exactlin import eigenspaces, mat_rank, mat_vec, shift
from bipencil.liealg import (LieAlgebra, LinearPencil, TwoCocycle, argument_shift_cocycle,
                             is_cocycle, is_regular_cocycle, kernel_of_cocycle,
                             matrix_is_semisimple)
from bipencil.sampling import SamplingPolicy
from bipencil.scalars import EXACT, QQi, float_mode

from oracles.algebras import (abelian, central_extension, euclidean_e2, heisenberg,
                              with_complex_scalars)

F = Fraction


def skew(d, pairs):
    M = [[F(0)] * d for _ in range(d)]
    for (i, j), v in pairs.items():
        M[i][j] = F(v)
        M[j][i] = -F(v)
    return TwoCocycle(M)


def test_standard_algebras_satisfy_jacobi():
    for g in (algebras.so3(), algebras.sl2(), algebras.so3_complex_real_form(),
              algebras.diamond(), algebras.diamond_h(),
              algebras.diamond_complexified(), algebras.so4(), algebras.so22(),
              heisenberg(), euclidean_e2()):
        assert g.jacobi_violation() is None


def test_bracket_and_ad():
    g = algebras.so3()
    e1 = [F(1), F(0), F(0)]
    e2 = [F(0), F(1), F(0)]
    assert g.bracket(e1, e2) == [F(0), F(0), F(1)]
    ad3 = g.ad_matrix([F(0), F(0), F(1)])
    assert ad3[1][0] == 1 and ad3[0][1] == -1  # e1 -> e2, e2 -> -e1


def test_is_cocycle_argument_shift_always():
    for g in (algebras.so3(), algebras.sl2(), algebras.diamond()):
        sp = SamplingPolicy(4)
        a = sp.rational_point(g.dim)
        assert is_cocycle(g, argument_shift_cocycle(g, a))


def test_is_cocycle_coboundary_and_heisenberg():
    g = algebras.so3()
    assert is_cocycle(g, skew(3, {(0, 1): 1}))
    h = heisenberg()
    assert is_cocycle(h, skew(3, {(0, 2): 1}))


def test_is_cocycle_negative_case():
    # [e1, e2] = e2 with A(e2, e3) = 1 violates the identity on (e1, e2, e3)
    g = LieAlgebra(4)
    g.set_bracket(0, 1, [F(0), F(1), F(0), F(0)])
    assert not is_cocycle(g, skew(4, {(1, 2): 1}))


def test_kernel_of_cocycle_diamond_center():
    D = algebras.diamond()
    lp = LinearPencil(D, argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)]))
    k = kernel_of_cocycle(lp)
    assert len(k.basis) == 2 and k.abelian
    assert all(matrix_is_semisimple(M) for M in k.ad)
    # the kernel is span{h, t}
    for v in k.basis:
        assert v[0] == 0 and v[1] == 0


def test_kernel_of_cocycle_sl2_cartan():
    S = algebras.sl2()
    lp = LinearPencil(S, argument_shift_cocycle(S, [F(1), F(0), F(0)]))
    k = kernel_of_cocycle(lp)
    assert len(k.basis) == 1 and k.abelian
    assert all(matrix_is_semisimple(M) for M in k.ad)
    assert k.basis[0][1] == 0 and k.basis[0][2] == 0


def test_kernel_of_cocycle_diamond_nilpotent_direction():
    D = algebras.diamond()
    lp = LinearPencil(D, argument_shift_cocycle(D, [F(1), F(0), F(0), F(0)]))
    k = kernel_of_cocycle(lp)
    assert len(k.basis) == 2 and k.abelian
    assert not all(matrix_is_semisimple(M) for M in k.ad)
    # kernel contains e and h
    assert mat_rank(k.basis + [[F(1), F(0), F(0), F(0)],
                                   [F(0), F(0), F(1), F(0)]]) == 2


def block(*rows_of_blocks):
    """The matrix with the given 2x2 blocks, each a list of rows."""
    return [[F(x) for b in blocks for x in b[r]] for blocks in rows_of_blocks for r in range(2)]


A_SQRT2 = [[0, 2], [1, 0]]                # eigenvalues +-sqrt(2)
I2, Z2 = [[1, 0], [0, 1]], [[0, 0], [0, 0]]

SEMISIMPLICITY_CASES = {
    "sqrt2 Jordan block": (block([A_SQRT2, I2], [Z2, A_SQRT2]), False),
    "sqrt2 twice": (block([A_SQRT2, Z2], [Z2, A_SQRT2]), True),
    "nilpotent 3x3": ([[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0)] * 3], False),
    "empty": ([], True),
    "so(3) ad": (algebras.so3().ad_matrix([F(0), F(0), F(1)]), True),
}


@pytest.mark.parametrize("mode", [EXACT, float_mode(1e-9)], ids=["exact", "float"])
@pytest.mark.parametrize("name", sorted(SEMISIMPLICITY_CASES))
def test_semisimplicity_is_the_eigen_split(name, mode):
    M, semisimple = SEMISIMPLICITY_CASES[name]
    split = eigenspaces(M, mode)
    assert matrix_is_semisimple(M, mode) is semisimple
    assert (split is not None) is semisimple
    if split is None:
        return
    # one eigenspace per distinct eigenvalue; together they span
    assert sum(len(sub) for _, sub in split) == len(M)
    assert all(len(sub) >= 1 for _, sub in split)
    for val, sub in split:
        for v in sub:
            assert max((abs(complex(x)) for x in mat_vec(shift(M, val), v)), default=0) < 1e-9


def test_eigen_split_of_so3_ad_is_exact_in_exact_mode():
    # ad_{e3} rotates (e1, e2) and kills e3: eigenvalues 0 and +-i, each simple
    M = algebras.so3().ad_matrix([F(0), F(0), F(1)])
    split = eigenspaces(M, EXACT)
    assert sorted(str(val) for val, _ in split) == sorted(map(str, [F(0), QQi(0, 1), QQi(0, -1)]))
    for val, sub in split:
        assert len(sub) == 1 and all(x == 0 for x in mat_vec(shift(M, val), sub[0]))


def companion(c):
    """The companion matrix of x^2 - c."""
    return [[0, c], [1, 0]]


@pytest.mark.parametrize("eps", [F(1, 10 ** 4), F(1, 10 ** 6)], ids=["1e-4", "1e-6"])
def test_eigen_split_tells_close_irrational_pairs_apart(eps):
    # diag(C(2), C(2), C(2 + eps)) is diagonalizable: +-sqrt(2) twice each,
    # +-sqrt(2 + eps) once each, so at each sign a two- and a one-dimensional
    # eigenspace
    M = block([companion(2), Z2, Z2], [Z2, companion(2), Z2], [Z2, Z2, companion(2 + eps)])
    assert matrix_is_semisimple(M, EXACT)
    split = eigenspaces(M, EXACT)
    assert split is not None
    got = sorted((complex(val).real, len(sub)) for val, sub in split)
    r, s = 2 ** 0.5, float(2 + eps) ** 0.5
    assert [d for _, d in got] == [1, 2, 2, 1]
    assert [v for v, _ in got] == pytest.approx([-s, -r, r, s], abs=1e-9)
    for val, sub in split:
        for v in sub:
            assert max(abs(complex(x)) for x in mat_vec(shift(M, val), v)) < 1e-9


def test_central_extension_heisenberg():
    ab = abelian(2)
    ext = central_extension(ab, skew(2, {(0, 1): 1}))
    assert ext.dim == 3 and ext.jacobi_violation() is None
    assert ext.structure_vector(0, 1) == [F(0), F(0), F(1)]


def test_central_extension_e2_gives_diamond():
    e2 = euclidean_e2()           # basis (e, f, t)
    ext = central_extension(e2, skew(3, {(0, 1): 1}))
    # relations [e,f] = z, [t,e] = f, [t,f] = -e: the diamond algebra with h = z
    assert ext.structure_vector(0, 1) == [F(0), F(0), F(0), F(1)]
    assert ext.structure_vector(2, 0) == [F(0), F(1), F(0), F(0)]
    assert ext.structure_vector(2, 1) == [F(-1), F(0), F(0), F(0)]
    assert ext.jacobi_violation() is None


def test_central_extension_of_coboundary_splits():
    # for A = A_a the map x -> x + <a, x> z embeds the algebra complementing
    # the center, so the extension is a direct sum with a line
    g = algebras.sl2()
    a = [F(1), F(2), F(-1)]
    ext = central_extension(g, argument_shift_cocycle(g, a))
    d = g.dim

    def phi(x):
        return list(x) + [sum(ai * xi for ai, xi in zip(a, x))]

    basis = [[F(1) if t == i else F(0) for t in range(d)] for i in range(d)]
    for x in basis:
        for y in basis:
            lhs = ext.bracket(phi(x), phi(y))
            rhs = phi(g.bracket(x, y))
            assert lhs == rhs
    # the image of phi together with z spans, and z is central
    z = [F(0)] * d + [F(1)]
    assert mat_rank([phi(x) for x in basis] + [z]) == d + 1
    assert all(v == 0 for v in ext.bracket(z, phi(basis[0])))


def test_central_extension_rejects_non_cocycle():
    g = LieAlgebra(4)
    g.set_bracket(0, 1, [F(0), F(1), F(0), F(0)])
    with pytest.raises(PreconditionError):
        central_extension(g, skew(4, {(1, 2): 1}))


def test_is_regular_cocycle():
    sp = SamplingPolicy(9)
    so3 = algebras.so3()
    assert is_regular_cocycle(
        LinearPencil(so3, argument_shift_cocycle(so3, [F(0), F(0), F(1)])), sp)
    # zero form on a non-Abelian algebra is not regular
    assert not is_regular_cocycle(LinearPencil(so3, skew(3, {})), sp.spawn(1))
    # the nilpotent shift on sl(2) is still regular: the sampled pencil rank
    # equals the rank of the form (the underlying element is regular)
    sl2 = algebras.sl2()
    nil = LinearPencil(sl2, argument_shift_cocycle(sl2, [F(0), F(1), F(0)]))
    assert is_regular_cocycle(nil, sp.spawn(2))
    # so(3, C) with the shift by i e3, a regular element, in both modes
    gc = with_complex_scalars(so3)
    shift = argument_shift_cocycle(gc, [F(0), F(0), QQi(0, 1)])
    for mode in (EXACT, float_mode(1e-9)):
        assert is_regular_cocycle(LinearPencil(gc, shift), sp.spawn(3), mode)
        assert not is_regular_cocycle(LinearPencil(gc, skew(3, {})), sp.spawn(3), mode)


def test_regular_implies_abelian_kernel():
    sp = SamplingPolicy(21)
    cases = [(algebras.so3(), [F(0), F(0), F(1)]),
             (algebras.sl2(), [F(1), F(0), F(0)]),
             (algebras.diamond(), [F(0), F(0), F(1), F(0)])]
    for g, a in cases:
        lp = LinearPencil(g, argument_shift_cocycle(g, a))
        if is_regular_cocycle(lp, sp):
            assert kernel_of_cocycle(lp).abelian


def test_algebra_json_round_trip():
    g = algebras.diamond()
    doc = g.to_json_dict()
    g2 = LieAlgebra.from_json_dict(doc)
    assert g2.dim == g.dim
    for i in range(4):
        for j in range(4):
            assert g2.structure_vector(i, j) == g.structure_vector(i, j)
    A = argument_shift_cocycle(g, [F(0), F(0), F(1), F(0)])
    A2 = TwoCocycle.from_json_dict(A.to_json_dict())
    assert A2.matrix == A.matrix
