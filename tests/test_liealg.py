import itertools
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil import algebras
from bipencil.catalog import catalog
from bipencil.errors import PreconditionError
from bipencil.exactlin import eigenspaces, identity, mat_rank, mat_vec, nullspace, shift
from bipencil.liealg import (LieAlgebra, LinearPencil, TwoCocycle, argument_shift_cocycle,
                             is_cocycle, is_regular_cocycle, kernel_of_cocycle,
                             matrix_is_semisimple)
from bipencil.scalars import EXACT, QQi, float_mode

from oracles import corpus
from oracles.algebras import (abelian, central_extension, euclidean_e2, heisenberg,
                              loop_ad_matrix, with_complex_scalars)
from oracles.sampling import SamplingPolicy
from pipeline import linearize_at, spectrum_of

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


def test_center_reads_each_structure_vector_once(monkeypatch):
    # the rows (j, k) of the center's system hold c_ij^k over i: exact, they
    # are filled from the structure constants' carrier rows, with no
    # structure vector; in float mode they are the structure array, made
    # once per algebra, reshaped, again with no structure vector
    g = algebras.so3().direct_sum(algebras.diamond())
    d = g.dim
    rows = [[g.structure_vector(i, j)[k] for i in range(d)] for j in range(d) for k in range(d)]
    calls, builds = [], []
    structure_vector = LieAlgebra.structure_vector
    monkeypatch.setattr(LieAlgebra, "structure_vector",
                        lambda self, i, j: calls.append((i, j)) or structure_vector(self, i, j))
    array = LieAlgebra.__dict__["_array"].func
    counted = cached_property(lambda self: builds.append(self) or array(self))
    counted.__set_name__(LieAlgebra, "_array")
    monkeypatch.setattr(LieAlgebra, "_array", counted)
    center = g.center()
    assert calls == [] and builds == []
    assert center == nullspace(rows) and len(center) == 1
    mode = float_mode()
    assert mat_rank(g.center(mode) + center, mode) == 1
    assert mat_rank(g.center(mode) + center, mode) == 1
    assert calls == [] and builds == [g]


def structure_cases():
    """(name, exact algebra, cocycle): every catalog algebra with its shift
    cocycle, so(3, C) on two bases with a complex shift, and the kernel
    algebra of singular Toda n = 4 at each spectrum value, with its form."""
    cases = [(e.name, e.algebra, argument_shift_cocycle(e.algebra, e.shift))
             for e in catalog() if e.algebra is not None]
    so3c = with_complex_scalars(algebras.so3())
    cases.append(("so3C", so3c, argument_shift_cocycle(so3c, [F(0), F(0), QQi(0, 1)])))
    # so(3, C) on the basis (i e1, e2, e3): its structure constants are +-i
    twisted = LieAlgebra(3, "complex")
    for (i, j), vec in {(0, 1): [0, 0, QQi(0, 1)], (1, 2): [QQi(0, -1), 0, 0],
                        (2, 0): [0, QQi(0, 1), 0]}.items():
        twisted.set_bracket(i, j, vec)
    assert twisted.jacobi_violation() is None
    cases.append(("so3C (i e1, e2, e3)", twisted,
                  argument_shift_cocycle(twisted, [F(1), F(0), QQi(0, 1)])))
    p = corpus.toda_singular(4, 1).pencil
    for k, entry in enumerate(spectrum_of(p).entries):
        lp = linearize_at(p, entry.lam)
        cases.append((f"toda-singular-4.1 lambda#{k}", lp.algebra, lp.cocycle))
    return cases


def floats(v):
    return [complex(x) for x in v]


def bits(v):
    z = complex(v)
    return z.real.hex(), z.imag.hex()


def test_the_float_structure_array_agrees_with_exact_mode():
    # float mode reads one (d, d, d) array of the structure constants; its
    # brackets, ad matrices, center and cocycle verdicts are exact mode's
    # within Mode.zero's rule, on the algebra itself and on its float twin,
    # whose structure constants are its own in floats, as float linearize
    # declares them
    mode = float_mode()
    rejected = 0
    for name, g, A in structure_cases():
        d = g.dim
        twin = LieAlgebra(d, g.field)
        for (i, j), vec in g._c.items():
            twin.set_bracket(i, j, floats(vec))
        assert (twin._table is None) == bool(g._c) and np.array_equal(twin._array, g._array)
        assert [floats(twin.structure_vector(i, j)) for i in range(d) for j in range(d)] == \
            [floats(g.structure_vector(i, j)) for i in range(d) for j in range(d)], name
        cmax = max([abs(complex(x)) for v in g._c.values() for x in v] + [1.0])
        vectors = identity(d) + [[F(1 + (i * k) % 5, 1 + k) - F(k, 3) for i in range(d)]
                                 for k in range(1, 3)] + [[QQi(F(i), F(1, 1 + i)) for i in range(d)]]
        for x in vectors:
            xmax = max(abs(complex(v)) for v in x)
            want = g.ad_matrix(x)
            for h in (g, twin):
                got = h.ad_matrix(floats(x))
                assert all(mode.zero(complex(a) - complex(b), d * cmax * xmax)
                           for ra, rb in zip(got, want) for a, b in zip(ra, rb)), name
            for y in vectors:
                scale = d * d * cmax * xmax * max(abs(complex(v)) for v in y)
                want = g.bracket(x, y)
                for h in (g, twin):
                    got = h.bracket(floats(x), floats(y))
                    assert len(got) == d and all(mode.zero(complex(a) - complex(b), scale)
                                                 for a, b in zip(got, want)), name
        center = g.center()
        for h in (g, twin):
            got = h.center(mode)
            assert len(got) == len(center) and mat_rank(got + center, mode) == len(center), name
        assert is_cocycle(g, A) and is_cocycle(g, A, mode) and is_cocycle(twin, A, mode), name
        # a shift cocycle perturbed at one entry: float mode rejects what exact mode does
        for p, q in itertools.combinations(range(d), 2):
            M = [list(row) for row in A.matrix]
            M[p][q], M[q][p] = M[p][q] + F(1, 1000), M[q][p] - F(1, 1000)
            B = TwoCocycle(M)
            exact = is_cocycle(g, B)
            assert is_cocycle(g, B, mode) == exact and is_cocycle(twin, B, mode) == exact, name
            rejected += not exact
    assert rejected > 0


def test_the_float_ad_matrix_is_the_loop_sum_bit_for_bit():
    # ad_x contracts the structure array with CPython's complex product and
    # adds over i in order from 0: the bits, signed zeros included, of the
    # loop over the brackets, on exact structure constants and on the float
    # ones of a float linearization, which the printed roots are read off
    mode = float_mode()
    p = corpus.toda_singular(4, 1).pencil
    algebras_ = [abelian(1), abelian(2)] + [g for _, g, _ in structure_cases()] + \
        [linearize_at(p, entry.lam, mode).algebra for entry in spectrum_of(p, mode).entries]
    for g in algebras_:
        d = g.dim
        for x in [[(-1) ** i * (i + 0.1) for i in range(d)], [-(i + 0.1) for i in range(d)],
                  [complex(1 / (i + 3), i - 0.7) for i in range(d)], [0.0] * d]:
            got, want = g.ad_matrix(x), loop_ad_matrix(g, x)
            assert [bits(v) for row in got for v in row] == \
                [bits(v) for row in want for v in row]


def test_set_bracket_drops_the_float_structure_array():
    # a float read builds the array; a new bracket must be seen by the next
    # float read, not the array of the old one
    mode = float_mode()
    g = algebras.so3()
    e1, e2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    assert g.bracket(e1, e2) == [0, 0, 1] and len(g.center(mode)) == 0
    assert is_cocycle(g, skew(3, {(0, 1): 1}), mode)
    g.set_bracket(0, 1, [F(0), F(0), F(2)])
    assert g.bracket(e1, e2) == [0, 0, 2]
    assert g.ad_matrix(e1) == [[0, 0, 0], [0, 0, -1], [0, 2, 0]]
    g.set_bracket(0, 1, [F(0)] * 3)
    g.set_bracket(0, 2, [F(0)] * 3)
    assert g.bracket(e1, e2) == [0, 0, 0] and len(g.center(mode)) == 1
    g.set_bracket(0, 1, [F(0), F(1), F(0)])
    assert not is_cocycle(g, skew(3, {(1, 2): 1}), mode)


@st.composite
def sparse_algebras(draw):
    """Skew brackets on 1..5 basis vectors, a third of them nonzero, with
    rational or (over C) Gaussian-rational constants; no Jacobi identity."""
    d, gaussian = draw(st.integers(1, 5)), draw(st.booleans())
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    scalar = st.builds(QQi, part, part) if gaussian else part
    g = LieAlgebra(d, "complex" if gaussian else "real")
    for i in range(d):
        for j in range(i + 1, d):
            if draw(st.integers(0, 2)) == 0:
                g.set_bracket(i, j, draw(st.lists(scalar, min_size=d, max_size=d)))
    return g


@settings(max_examples=60, deadline=None)
@given(sparse_algebras())
def test_the_exact_center_is_the_kernel_of_the_structure_vectors(g):
    # the center's carrier rows hold the system that the structure vectors
    # give, so its pivot-normalized kernel is the same, value for value
    d = g.dim
    c = [[g.structure_vector(i, j) for j in range(d)] for i in range(d)]
    want = nullspace([[c[i][j][k] for i in range(d)] for j in range(d) for k in range(d)])
    got = g.center()
    assert got == want and [type(x) for v in got for x in v] == [type(x) for v in want for x in v]


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
    so3 = algebras.so3()
    assert is_regular_cocycle(
        LinearPencil(so3, argument_shift_cocycle(so3, [F(0), F(0), F(1)])))
    # zero form on a non-Abelian algebra is not regular
    assert not is_regular_cocycle(LinearPencil(so3, skew(3, {})))
    # the nilpotent shift on sl(2) is still regular: the walked pencil rank
    # equals the rank of the form (the underlying element is regular)
    sl2 = algebras.sl2()
    nil = LinearPencil(sl2, argument_shift_cocycle(sl2, [F(0), F(1), F(0)]))
    assert is_regular_cocycle(nil)
    # so(3, C) with the shift by i e3, a regular element, in both modes
    gc = with_complex_scalars(so3)
    shift = argument_shift_cocycle(gc, [F(0), F(0), QQi(0, 1)])
    for mode in (EXACT, float_mode(1e-9)):
        assert is_regular_cocycle(LinearPencil(gc, shift), mode)
        assert not is_regular_cocycle(LinearPencil(gc, skew(3, {})), mode)


def test_regular_implies_abelian_kernel():
    cases = [(algebras.so3(), [F(0), F(0), F(1)]),
             (algebras.sl2(), [F(1), F(0), F(0)]),
             (algebras.diamond(), [F(0), F(0), F(1), F(0)])]
    for g, a in cases:
        lp = LinearPencil(g, argument_shift_cocycle(g, a))
        if is_regular_cocycle(lp):
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
