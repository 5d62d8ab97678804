from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil import algebras, exactlin, linearization
from bipencil.catalog import catalog_by_name
from bipencil.errors import RankDeficientPointError, ToleranceError
from bipencil.exactlin import mat_rank, transpose
from bipencil.liealg import (COMPLEX, REAL, CocycleKernel, LieAlgebra, LinearPencil,
                             TwoCocycle, argument_shift_cocycle, is_cocycle)
from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair, congruent_pair
from bipencil.linearization import kernel_form, linearize
from bipencil.pencil import (compute_core, compute_spectrum, is_diagonalizable,
                             kernel_basis, pencil_rank_corank, quotient_basis, quotient_form)
from bipencil.roots import (analyze_linear, is_nondegenerate_linear, joint_eigenvectors,
                           root_decomposition)
from bipencil.scalars import EXACT, INF, QQi, conj, float_mode, is_exact_scalar, is_inf, tidy
from bipencil.tensorfield import evaluate_pencil, gram, skew
from bipencil.toda import make_singular_point

from oracles import corpus
from oracles.algebras import abelian, quotient_by_central, with_complex_scalars
from oracles.dense import bilinear, gram_rounding_errors
from oracles.toda import constant_lattice, toda_pencil_at
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
    assert lp.algebra.jacobi_violation() is None
    # sl(2, R) + line: one-dimensional center, three-dimensional derived part
    assert len(lp.algebra.center()) == 1
    assert mat_rank(list(lp.algebra._c.values())) == 3


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
        assert lp.algebra.jacobi_violation() is None
        assert is_cocycle(lp.algebra, lp.cocycle)


def test_root_decomposition_so3():
    g = algebras.so3()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(0), F(0), F(1)]))
    rd = root_decomposition(lp)
    assert rd.residual is None and len(rd.pairs) == 1
    (root,) = rd.pairs[0].root,
    assert rd.pairs[0].reality() == "imaginary"


def test_root_decomposition_sl2_real_roots():
    g = algebras.sl2()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(1), F(0), F(0)]))
    rd = root_decomposition(lp)
    assert rd.residual is None and len(rd.pairs) == 1
    assert rd.pairs[0].reality() == "real"
    assert rd.pairs[0].root == (F(2),) or rd.pairs[0].root == (F(-2),)


def test_root_decomposition_diamond():
    D = algebras.diamond()
    lp = LinearPencil(D, argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)]))
    rd = root_decomposition(lp)
    assert rd.residual is None and len(rd.pairs) == 1
    # the root vanishes on the central direction and is imaginary on t
    root = rd.pairs[0].root
    assert rd.pairs[0].reality() == "imaginary"
    assert any(v != 0 for v in root)


def test_is_nondegenerate_cases():
    gc = algebras.so3_complex_real_form()
    lp = LinearPencil(gc, argument_shift_cocycle(gc, [F(0), F(0), F(1)] + [F(0)] * 3))
    ok, reason = is_nondegenerate_linear(root_decomposition(lp))
    assert ok, reason

    s = algebras.sl2()
    nil = LinearPencil(s, argument_shift_cocycle(s, [F(0), F(1), F(0)]))
    ok, reason = is_nondegenerate_linear(root_decomposition(nil))
    assert not ok and reason == "AdNotSemisimple"

    ab = abelian(3)
    M = [[F(0)] * 3 for _ in range(3)]
    M[0][1], M[1][0] = F(1), F(-1)
    zero = LinearPencil(ab, TwoCocycle(M))
    ok, reason = is_nondegenerate_linear(root_decomposition(zero))
    assert not ok and reason == "RootsDependent"


# R x R^4 with basis t, x1, x2, y1, y2: [t, x_k] = x_k, [t, y_k] = -y_k, and
# the cocycle x1 ^ y1 + x2 ^ y2, whose kernel is {t}
R_TIMES_R4 = {"dim": 5, "structure": [{"i": 1, "j": j, "k": j, "c": c}
                                      for j, c in ((2, "1"), (3, "1"), (4, "-1"), (5, "-1"))]}
R_TIMES_R4_COCYCLE = {"dim": 5, "cocycle": [{"i": 2, "j": 4, "c": "1"}, {"i": 3, "j": 5, "c": "1"}]}


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_two_dimensional_root_space_is_roots_dependent(mode):
    # g_1 and g_-1 are two-dimensional: each root vector gives its own pair, so
    # the root 1 is listed twice and the two roots are dependent
    lp = LinearPencil(LieAlgebra.from_json_dict(R_TIMES_R4),
                      TwoCocycle.from_json_dict(R_TIMES_R4_COCYCLE))
    lin = analyze_linear(lp, mode)
    assert len(lin.data.kernel_basis) == 1 and len(lin.data.pairs) == 2
    assert lin.data.pairs[0].root == lin.data.pairs[1].root
    assert lin.reason == "RootsDependent" and lin.blocks is None


def test_a_root_without_its_negative_is_a_tolerance_failure():
    # the cocycle identity pairs every root with its negative; a kernel that
    # breaks it, {t} in aff(1) with [t, x] = x, leaves the root 1 unpaired
    g = LieAlgebra.from_json_dict({"dim": 2, "structure": [{"i": 1, "j": 2, "k": 2, "c": "1"}]})
    t = [F(1), F(0)]
    kernel = CocycleKernel(basis=[t], ad=[g.ad_matrix(t)], abelian=True)
    with pytest.raises(ToleranceError):
        root_decomposition(LinearPencil(g, TwoCocycle([[F(0)] * 2 for _ in range(2)])),
                           kernel=kernel)


def test_linear_pencil_type_examples():
    cases = [
        (algebras.so3(), [F(0), F(0), F(1)], (1, 0, 0)),
        (algebras.sl2(), [F(1), F(0), F(0)], (0, 1, 0)),
        (algebras.so3_complex_real_form(), [F(0), F(0), F(1), F(0), F(0), F(0)], (0, 0, 1)),
    ]
    for g, a, expected in cases:
        lp = LinearPencil(g, argument_shift_cocycle(g, a))
        assert astuple(analyze_linear(lp).type) == expected


def test_classify_examples():
    g = algebras.so3()
    lp = LinearPencil(g, argument_shift_cocycle(g, [F(0), F(0), F(1)]))
    bd = analyze_linear(lp).blocks
    assert bd.counts["so3"] == 1 and bd.abelian_dim == 0 and bd.central_ideal_dim == 0

    D = algebras.diamond()
    lpd = LinearPencil(D, argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)]))
    bdd = analyze_linear(lpd).blocks
    assert bdd.counts["diamond"] == 1 and bdd.central_ideal_dim == 0


def test_classify_quotient_by_central_ideal():
    DD = algebras.diamond().direct_sum(algebras.diamond())
    ideal = [[F(0), F(0), F(1), F(0), F(0), F(0), F(-1), F(0)]]
    Q, _ = quotient_by_central(DD, ideal)
    a = [F(0)] * 7
    a[Q.labels.index("a.h")] = F(1)
    lp = LinearPencil(Q, argument_shift_cocycle(Q, a))
    lin = analyze_linear(lp)
    assert lin.reason is None, lin.reason
    bd = lin.blocks
    assert bd.counts["diamond"] == 2
    assert bd.central_ideal_dim == 1 and bd.abelian_dim == 0
    # reconstruction identity
    assert bd.block_dim_total(REAL) - bd.central_ideal_dim + bd.abelian_dim == Q.dim


def test_classify_refuses_degenerate():
    # the refusal lives in analyze_linear: a degenerate pencil gets no blocks
    s = algebras.sl2()
    nil = LinearPencil(s, argument_shift_cocycle(s, [F(0), F(1), F(0)]))
    lin = analyze_linear(nil)
    assert lin.reason == "AdNotSemisimple"
    assert lin.blocks is None and lin.type is None


def test_scale_invariance_of_verdicts():
    D = algebras.diamond()
    base = argument_shift_cocycle(D, [F(0), F(0), F(1), F(0)])
    for c in (F(3), F(-2, 7), F(1, 9)):
        lin = analyze_linear(LinearPencil(D, TwoCocycle([[c * v for v in row]
                                                          for row in base.matrix])))
        assert lin.reason is None
        assert astuple(lin.type) == (1, 0, 0)
        assert lin.blocks.counts["diamond"] == 1


def test_complex_field_classification():
    gc = with_complex_scalars(algebras.so3())
    lp = LinearPencil(gc, argument_shift_cocycle(gc, [F(0), F(0), F(1)]))
    lin = analyze_linear(lp)
    assert lin.reason is None
    assert astuple(lin.type) == (0, 0, 1)
    assert lin.blocks.counts["so3C"] == 1

    dc = with_complex_scalars(algebras.diamond())
    lind = analyze_linear(LinearPencil(dc, argument_shift_cocycle(dc, [F(0), F(0), F(1), F(0)])))
    assert lind.reason is None
    assert lind.blocks.counts["diamond_C"] == 1


# ---------------------------------------------------------------------------
# differential test: the type read off the blocks against a walk over the
# root pairs that reads it off the roots
# ---------------------------------------------------------------------------


def oracle_reality(root, mode):
    """'zero', 'real', 'imaginary' or 'complex', with one tolerance for all
    values (none when the mode and every value are exact)."""
    vals = [complex(v) for v in root]
    tol = 0.0 if mode.is_exact and all(is_exact_scalar(v) for v in root) \
        else 10 * max(mode.tol, 1e-12) * max([abs(v) for v in vals] + [1e-300])
    for kind, part in (("zero", abs), ("real", lambda z: abs(z.imag)),
                       ("imaginary", lambda z: abs(z.real))):
        if all(part(v) <= tol for v in vals):
            return kind
    return "complex"


def oracle_conjugate(pairs, consumed, root, mode):
    tol = 10 * max(mode.tol, 1e-12) * max([abs(complex(v)) for v in root] + [1.0])
    for j, other in enumerate(pairs):
        if consumed[j]:
            continue
        for target in ([conj(v) for v in root], [-conj(v) for v in root]):
            if all(is_exact_scalar(x) for x in list(other.root) + target):
                if list(other.root) == target:
                    return j
            elif all(abs(complex(x) - complex(y)) <= tol for x, y in zip(other.root, target)):
                return j
    return None


def oracle_type(data, mode):
    """(ke, kh, kf) from the roots: imaginary pairs are elliptic, real pairs
    hyperbolic, conjugate quadruples focus; over C every pair is focus."""
    if data.field == COMPLEX:
        return (0, 0, len(data.pairs))
    counts = {"imaginary": 0, "real": 0, "complex": 0}
    consumed = [False] * len(data.pairs)
    for i, pair in enumerate(data.pairs):
        if consumed[i]:
            continue
        consumed[i] = True
        kind = oracle_reality(pair.root, mode)
        if kind not in ("imaginary", "real"):
            mate = oracle_conjugate(data.pairs, consumed, pair.root, mode)
            assert mate is not None
            consumed[mate] = True
            kind = "complex"
        counts[kind] += 1
    return (counts["imaginary"], counts["real"], counts["complex"])


def linearizations(p, mode):
    """The linear pencil at each diagonalizable spectrum value of p."""
    rank, corank = pencil_rank_corank(p, mode)
    core = compute_core(p, mode, rank=rank)
    for entry in compute_spectrum(p, core, mode).entries:
        ker = kernel_basis(p, entry.lam, mode)
        form = kernel_form(p, entry.lam, ker)
        if is_diagonalizable(form, corank, mode):
            yield linearize(p, entry.lam, ker, form, mode)


def example_pencils():
    """The linear pencils of the examples above."""
    def shift(g, a):
        return LinearPencil(g, argument_shift_cocycle(g, [F(x) for x in a]))

    DD = algebras.diamond().direct_sum(algebras.diamond())
    Q, _ = quotient_by_central(DD, [[F(0), F(0), F(1), F(0), F(0), F(0), F(-1), F(0)]])
    return [shift(algebras.so3(), [0, 0, 1]),
            shift(algebras.sl2(), [1, 0, 0]),
            shift(algebras.sl2(), [0, 1, 0]),
            shift(algebras.diamond(), [0, 0, 1, 0]),
            LinearPencil(algebras.diamond(),
                         TwoCocycle([[F(-2, 7) * v for v in row] for row in
                                     argument_shift_cocycle(algebras.diamond(),
                                                            [F(0), F(0), F(1), F(0)]).matrix])),
            shift(algebras.so3_complex_real_form(), [0, 0, 1, 0, 0, 0]),
            shift(with_complex_scalars(algebras.so3()), [0, 0, 1]),
            shift(with_complex_scalars(algebras.diamond()), [0, 0, 1, 0]),
            shift(Q, [1 if label == "a.h" else 0 for label in Q.labels])]


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_type_from_blocks_matches_the_pair_walk(mode):
    pencils = list(example_pencils())
    for entry in catalog_by_name().values():
        p = evaluate_pencil(entry.field0, entry.field_inf, entry.point)
        pencils += linearizations(p, mode)
    pencils += linearizations(toda_pencil_at(make_singular_point(4)), mode)
    assert len(pencils) == 23
    compared = 0
    for lp in pencils:
        lin = analyze_linear(lp, mode)
        if lin.reason is None:
            assert astuple(lin.type) == oracle_type(lin.data, mode)
            compared += 1
        else:
            assert lin.type is None and lin.blocks is None
    assert compared >= 19


def test_joint_eigenvectors_of_exact_matrices_in_float_mode_are_float():
    # float mode splits exact operators in floats, and into the same floats as
    # their float copies: the first operator needs no restriction to the
    # standard basis to get float eigenvalues
    A = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(0)]]
    B = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]]
    mode = float_mode()
    items = joint_eigenvectors([A, B], mode)
    assert items == joint_eigenvectors([[[complex(x) for x in row] for row in M]
                                        for M in (A, B)], mode)
    assert len(items) == 3
    for eigs, vecs in items:
        assert not any(is_exact_scalar(x) for x in eigs)
        assert not any(is_exact_scalar(x) for v in vecs for x in v)


# ---------------------------------------------------------------------------
# the sparse contraction and the coordinate read-off
# ---------------------------------------------------------------------------


def brackets_seen(monkeypatch, p, lam, ker, mode):
    """The bracket vectors w_(u, v) that ``linearize`` hands to its coordinate
    step, and its result."""
    seen = []
    real = linearization.coords_in_span

    def spy(basis, ws, *rest):
        seen.append(ws)
        return real(basis, ws, *rest)

    monkeypatch.setattr(linearization, "coords_in_span", spy)
    lp = linearize(p, lam, ker, kernel_form(p, lam, ker), mode)
    assert len(seen) == 1
    return seen[0], lp


def dense_brackets(p, lam, ker):
    """tidy(bilinear(d_k P_lambda, u, v)) over the dense d_k P_lambda."""
    m = len(ker)
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    return transpose(dense_gram(p.dim, p.derivatives, lam, ker, pairs))


def bits(x):
    """The type of x and the bits of its real and imaginary parts."""
    z = complex(x)
    return type(x), z.real.hex(), z.imag.hex()


def contraction_cases():
    """(name, pencil, lambda): rational, infinite and Gaussian spectrum values."""
    toda4 = corpus.toda_singular(4, 1)
    gaussian = QQi(F(-12, 41), F(26, 41))      # a spectrum value of sl3-1
    return [("toda4 at 0", toda4.pencil, F(0)),
            ("toda4 swapped at infinity",
             evaluate_pencil(toda4.field_inf, toda4.field0, toda4.point), INF),
            ("sl3 rotation at a Gaussian lambda", corpus.sl(3, 1).pencil, gaussian),
            ("diamond_C_shift at 0", catalog_pencil("diamond_C_shift"), F(0))]


@pytest.mark.parametrize("name, p, lam", contraction_cases(),
                         ids=[case[0] for case in contraction_cases()])
def test_the_sparse_contraction_is_the_dense_bilinear_form(monkeypatch, name, p, lam):
    # exact mode: the same values as the dense d_k P_lambda; float mode:
    # within the rounding bound of the exact value of the same float inputs
    ker = kernel_basis(p, lam)
    assert len(ker) >= 2
    ws, lp = brackets_seen(monkeypatch, p, lam, ker, EXACT)
    assert ws == dense_brackets(p, lam, ker)
    assert any(x != 0 for w in ws for x in w)
    assert all(is_exact_scalar(x) for w in ws for x in w)
    assert lp.algebra.jacobi_violation() is None

    mode = float_mode()
    flam = lam if lam is INF else complex(lam)
    fker = kernel_basis(p, flam, mode)
    assert fker and not is_exact_scalar(fker[0][0])
    ws, _ = brackets_seen(monkeypatch, p, flam, fker, mode)
    m = len(fker)
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    errors = gram_rounding_errors(p.dim, p.derivatives, flam, fker, pairs, transpose(ws))
    assert len(errors) == p.dim * len(pairs)
    assert all(err <= bound for err, bound in errors)
    assert any(bound > 0 for _, bound in errors)


def test_a_basis_without_unit_columns_gives_the_same_algebra(monkeypatch):
    # Toda n = 4 at 0: the echelon kernel's coordinates are read off its unit
    # columns with no elimination, a scaled, mixed basis of the same kernel
    # has none and takes one elimination beside all its brackets; both give
    # one algebra, in their own coordinates
    p = corpus.toda_singular(4, 1).pencil
    ker = kernel_basis(p, F(0))
    mixed = [[F(3) * x + y for x, y in zip(ker[0], ker[1])]] + \
            [[F(-1, 2) * x for x in u] for u in ker[1:]]
    rrefs = []
    real = exactlin.rref
    monkeypatch.setattr(exactlin, "rref", lambda M: rrefs.append(M) or real(M))
    lp = linearize(p, F(0), ker, kernel_form(p, F(0), ker))
    assert rrefs == []
    lq = linearize(p, F(0), mixed, kernel_form(p, F(0), mixed))
    assert len(rrefs) == 1
    assert [row[:len(mixed)] for row in rrefs[0]] == transpose(mixed)
    # the change of basis C (mixed = C ker) carries one bracket table to the other
    C = [[F(3), F(1)] + [F(0)] * (len(ker) - 2)] + \
        [[F(0)] * t + [F(-1, 2)] + [F(0)] * (len(ker) - t - 1) for t in range(1, len(ker))]
    for i in range(len(ker)):
        for j in range(len(ker)):
            lhs = lp.algebra.bracket(C[i], C[j])            # [mixed_i, mixed_j] in ker coordinates
            rhs = [sum(c * C[t][s] for t, c in enumerate(lq.algebra.structure_vector(i, j)))
                   for s in range(len(ker))]
            assert lhs == rhs, (i, j)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_bracket_that_leaves_the_span_raises(mode):
    # so(3) at 0: [e1, e2] = e3, so two of the three kernel vectors span no
    # subalgebra, whether echelon or mixed
    p = catalog_pencil("so3_shift")
    ker = kernel_basis(p, F(0), mode)
    mixed = [[x + y for x, y in zip(ker[0], ker[1])], ker[1]]
    for basis in (ker[:2], mixed):
        with pytest.raises(RankDeficientPointError):
            linearize(p, F(0), basis, kernel_form(p, F(0), basis), mode)


# ---------------------------------------------------------------------------
# the one Gram contraction against the dense u^T A v
# ---------------------------------------------------------------------------


def dense_gram(dim, matrices, lam, basis, pairs):
    """tidy(bilinear(A, u, v)) over each dense A = skew(dim, entries, lam)."""
    dense = [skew(dim, entries, lam) for entries in matrices]
    return [[tidy(bilinear(A, basis[u], basis[v])) for u, v in pairs] for A in dense]


def typed_bits(rows):
    """Each exact value with its type, each float value as its bits."""
    return [[bits(x) if isinstance(x, (float, complex)) else (type(x), x) for x in row]
            for row in rows]


def scalars(exact):
    """ints, Fractions and Gaussian rationals, or floats and complex floats."""
    fractions = st.fractions(-4, 4, max_denominator=6)
    if exact:
        return st.one_of(st.integers(-3, 3), fractions, st.builds(QQi, fractions, fractions))
    floats = st.floats(-10, 10)
    return st.one_of(floats, st.builds(complex, floats, floats))


@st.composite
def gram_arguments(draw):
    """(dim, matrices, lam, basis, pairs): 1-3 sparse entry lists whose cells
    include zeros (a0 or ainf zero, or a0 = -lam ainf), each of one carrier,
    a basis of 0-4 vectors with zero entries planted, every ordered pair."""
    dim = draw(st.integers(1, 6))
    lam = draw(st.one_of(st.fractions(-3, 3, max_denominator=4), st.just(INF),
                         st.builds(QQi, st.fractions(-2, 2, max_denominator=3),
                                   st.fractions(-2, 2, max_denominator=3))))
    upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        value = scalars(draw(st.booleans()))
        entries = []
        for i, j in draw(st.lists(st.sampled_from(upper), unique=True)) if upper else []:
            a0, ainf = draw(value), draw(value)
            kind = draw(st.sampled_from(["any", "a0 zero", "ainf zero", "zero cell"]))
            if kind == "a0 zero":
                a0 = 0 * a0
            elif kind == "ainf zero":
                ainf = 0 * ainf
            elif kind == "zero cell" and not is_inf(lam):
                a0 = -lam * ainf
            if a0 != 0 or ainf != 0:
                entries.append((i, j, a0, ainf))
        matrices.append(sorted(entries))
    value = scalars(draw(st.booleans()))
    basis = []
    for _ in range(draw(st.integers(0, 4))):
        u = [draw(value) for _ in range(dim)]
        for t in draw(st.sets(st.integers(0, dim - 1), max_size=dim)):
            u[t] = 0 * u[t]
        basis.append(u)
    m = len(basis)
    return dim, matrices, lam, basis, [(u, v) for u in range(m) for v in range(m)]


@settings(max_examples=100, deadline=None)
@given(gram_arguments())
def test_gram_is_the_dense_bilinear_form(args):
    # sparse cells, zero cells, an empty basis and several matrices sharing
    # one integer scale: on exact input the values of the dense sum, of its
    # types; where any value is a float, floats within the rounding bound of
    # the exact value of the same float inputs
    got = gram(*args)
    assert len(got) == len(args[1])
    dim, matrices, lam, basis, pairs = args
    values = [x for entries in matrices for _, _, *pair in entries for x in pair]
    if all(is_exact_scalar(x) for x in values + [x for u in basis for x in u]):
        assert typed_bits(got) == typed_bits(dense_gram(*args))
    else:
        assert all(type(x) in (float, complex) for row in got for x in row)
        assert all(err <= bound for err, bound in gram_rounding_errors(*args, got))


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_quotient_form_is_the_dense_gram_matrix(mode):
    # the jk-congruent block lists, canonical and under an integer
    # congruence, each with its quotient basis and a Gaussian one: the
    # first vector plus i times the last
    pairs = [[KroneckerBlock(1), JordanBlock(F(1, 2), 1)],
             [KroneckerBlock(1), JordanBlock(QQi(F(1), F(1)), 1)],
             [KroneckerBlock(0), KroneckerBlock(2), JordanBlock(INF, 2)],
             [KroneckerBlock(1), JordanBlock(F(-2), 2), JordanBlock(INF, 1), JordanBlock(F(3), 1)],
             [KroneckerBlock(2), KroneckerBlock(1), JordanBlock(F(1, 3), 2),
              JordanBlock(QQi(F(0), F(1)), 1)]]
    imag = QQi(0, 1) if mode.is_exact else 1j
    for blocks in pairs:
        base = assemble_jk_canonical_pair(blocks)
        U = [[F(1 if i == j else (i + 2 * j) % 3 - 1 if j > i else 0) for j in range(base.dim)]
             for i in range(base.dim)]
        for p in (base, congruent_pair(base, U)):
            rank, _ = pencil_rank_corank(p, mode)
            qb = quotient_basis(p, compute_core(p, mode, rank=rank), mode)
            assert len(qb) >= 2
            mixed = [[x + imag * y for x, y in zip(qb[0], qb[-1])]] + qb[1:]
            assert any(isinstance(x, QQi if mode.is_exact else complex) for x in mixed[0])
            for basis in (qb, mixed):
                m = len(basis)
                every = [(u, v) for u in range(m) for v in range(m)]
                for lam in (F(0), F(-3, 7), INF, QQi(F(1, 2), F(-2))):
                    form = quotient_form(p, basis, lam)
                    if mode.is_exact:
                        expected = dense_gram(p.dim, [p.entries], lam, basis, every)[0]
                        assert typed_bits(form) == typed_bits(
                            [expected[u * m:(u + 1) * m] for u in range(m)]), (blocks, lam)
                    else:
                        errors = gram_rounding_errors(p.dim, [p.entries], lam, basis, every,
                                                      [[x for row in form for x in row]])
                        assert all(err <= bound for err, bound in errors), (blocks, lam)
