from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil.analyzer import analyze_point
from bipencil.catalog import catalog, catalog_by_name
from bipencil.errors import PreconditionError, RankDeficientPointError, SingularParameterError
from bipencil.exactlin import identity, mat_mul, mat_rank, mat_vec, nullspace
from bipencil import exactlin, pencil, tensorfield
from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair, congruent_pair
from bipencil.linearization import kernel_form
from bipencil.pencil import (compute_core, compute_spectrum, core_perp, height_walk,
                             kernel_basis, pencil_rank_corank, point_walk, quotient_basis,
                             quotient_dim, quotient_form, rank_at,
                             recursion_operator)
from bipencil.scalars import (EXACT, INF, QQi, conj, float_mode, is_inf, lambda_key,
                              quadratic_field, tidy)
from bipencil.tensorfield import PencilAtPoint, constant_pencil, evaluate_pencil, skew
from bipencil.toda import make_singular_point, random_point, toda_pencil

from oracles import corpus
from oracles.dense import bilinear, complex_array
from oracles.fields import diff
from oracles.sampling import SamplingPolicy
from oracles.stops import core_until_two_idle, rank_corank_over_d_plus_two
from oracles.toda import constant_lattice, toda_pencil_at
from pipeline import core_of, diagonalizable_flags, spectrum_of


@pytest.fixture
def kronecker3():
    return assemble_jk_canonical_pair([KroneckerBlock(1)])


@pytest.fixture
def so3_shift_pencil():
    e = catalog_by_name()["so3_shift"]
    return evaluate_pencil(e.field0, e.field_inf, e.point)


def test_point_walk_reads_the_height_walk_in_order():
    walk = point_walk(3)
    assert next(walk) == [Fraction(1), Fraction(2), Fraction(1, 2)]
    assert next(walk) == [Fraction(3), Fraction(3, 2), Fraction(1, 3)]
    points = [tuple(x) for x in islice(point_walk(3), 200)]
    assert len(set(points)) == len(points)
    assert all(len(x) == 3 and 0 not in x for x in points)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_point_walk_lies_on_no_hyperplane_through_the_origin(dim):
    # the first dim points span Q^dim: no linear form, x1 + x2 say, vanishes
    # at every point the analysis picks
    assert mat_rank(list(islice(point_walk(dim), dim))) == dim


def test_evaluate_pencil_so3_origin():
    e = catalog_by_name()["so3_shift"]
    p = evaluate_pencil(e.field0, e.field_inf, [Fraction(0)] * 3)
    assert all(v == 0 for row in p.A0 for v in row)
    # derivative in the third coordinate has (1,2)-entry 1: P^{12} = x3
    assert skew(3, p.derivatives[2], Fraction(0))[0][1] == 1
    # constant generator: derivatives vanish
    assert all(v == 0 for k in range(3) for row in skew(3, p.derivatives[k], INF) for v in row)


def test_evaluate_pencil_toda_example():
    p0, pinf = toda_pencil(2)
    p = evaluate_pencil(p0, pinf, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    assert p.A0[0][2] == 0       # {a1, b1}_0 = a1 b1 = 0
    assert p.Ainf[0][2] == 1     # {a1, b1}_inf = a1 = 1


def test_rank_at_kronecker_constant(kronecker3):
    for lam in (Fraction(0), Fraction(5, 7), Fraction(-3), INF):
        assert rank_at(kronecker3, lam) == 2
    assert pencil_rank_corank(kronecker3) == (2, 1)


def test_rank_at_shift_origin(so3_shift_pencil):
    assert rank_at(so3_shift_pencil, Fraction(0)) == 0
    assert rank_at(so3_shift_pencil, Fraction(1)) == 2
    assert pencil_rank_corank(so3_shift_pencil) == (2, 1)


def test_rank_at_toda_singular():
    p = toda_pencil_at(constant_lattice(2))
    assert rank_at(p, Fraction(0)) == 0
    assert pencil_rank_corank(p) == (2, 2)


def test_spectrum_kronecker_empty(kronecker3):
    assert spectrum_of(kronecker3).is_empty()


def test_spectrum_so3_origin(so3_shift_pencil):
    spec = spectrum_of(so3_shift_pencil)
    assert [ (e.lam, e.kernel_dim) for e in spec.entries ] == [(Fraction(0), 3)]


def test_spectrum_toda_singular(monkeypatch):
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p)
    # the spectrum takes the pencil rank from the core and never computes it
    def no_rank(*args, **kwargs):
        raise AssertionError("pencil rank recomputed")
    monkeypatch.setattr(pencil, "pencil_rank_corank", no_rank)
    spec = compute_spectrum(p, core)
    assert [(e.lam, e.kernel_dim) for e in spec.entries] == [(Fraction(0), 4)]


def test_core_kronecker(kronecker3):
    core = core_of(kronecker3)
    # kernels (0, -lam, 1) for two values of lam span the last two coordinates
    assert core.dim == 2
    target = [[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert mat_rank(core.basis + target) == 2


def test_core_so3(so3_shift_pencil):
    core = core_of(so3_shift_pencil)
    assert core.dim == 1
    # the kernel of the constant form is the third coordinate direction
    assert core.basis[0][0] == 0 and core.basis[0][1] == 0 and core.basis[0][2] != 0


def test_core_toda_singular():
    # all regular kernels coincide at this point, so L is two-dimensional and
    # meets Ker P_0 (the whole space) in corank-many dimensions
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p)
    assert core.dim == 2
    assert core.corank == 2


def test_quotient_form_regular_vs_singular():
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p)
    qb = quotient_basis(p, core)
    assert len(qb) == 2
    B_reg = quotient_form(p, qb, Fraction(3))
    assert mat_rank(B_reg) == 2                       # non-degenerate at regular lambda
    B_sing = quotient_form(p, qb, Fraction(0))
    # kernel dimension = dim Ker P_0 - corank in the diagonalizable case
    assert len(qb) - mat_rank(B_sing) == 4 - 2


def test_quotient_dimension_zero_for_kronecker(kronecker3):
    core = core_of(kronecker3)
    assert quotient_basis(kronecker3, core) == []


# 22 exact points: the catalog, Toda singular and random points for n = 3,
# 4, 5, and JK pairs with a Jordan block at 1/3, infinity and 1+2i
EXACT_POINTS = (
    corpus.catalog()
    + [c for n in (3, 4, 5) for c in (corpus.toda_singular(n, 1), corpus.toda_random(n, 3))]
    + [corpus.jk(f"jk-{lambda_key(lam)}", [KroneckerBlock(1), JordanBlock(lam, 2)], real=False)
       for lam in (Fraction(1, 3), INF, QQi(1, 2))])


def test_quotient_dim_counts_quotient_basis():
    # dim - 2 dim L + corank is the size of the quotient basis, at points with
    # and without Jordan blocks
    dims = {}
    for case in EXACT_POINTS:
        p = case.pencil
        core = core_of(p)
        dims[case.name] = quotient_dim(p, core)
        assert dims[case.name] == len(quotient_basis(p, core)), case.name
    assert len(dims) == 22 and dims["jk-(1+2i)"] == 4 and dims["toda-random-4.3"] == 0


def test_spectrum_kernels_fill_the_quotient_exactly_when_diagonalizable():
    # a Jordan block of size k at lambda adds 2 to Ker P_lambda beyond the
    # corank and 2k to L^perp / L (4 and 4k for a conjugate pair): the sum
    # over the spectrum equals dim L^perp / L when every size is 1, and falls
    # short otherwise.  Every lambda of the catalog, Toda and sl(n) points is
    # diagonalizable; the constant pairs say by their Jordan blocks
    sums = {}
    cases = (corpus.catalog() + corpus.toda((4, 6, 8), seeds=(1, 2))
             + [corpus.sl(n, b) for n, b in ((3, 0), (3, 1), (4, 1), (5, 0))]
             + corpus.jk_pairs() + [corpus.sqrt2(1), corpus.sqrt2(2)])
    for case in cases:
        name, p = case.name, case.pencil
        flat = case.pair is None or all(
            sizes == [1] * len(sizes) for sizes in case.expected["jordan"].values())
        core = core_of(p)
        spectrum = compute_spectrum(p, core)
        total = sum((e.kernel_dim - spectrum.corank) * (2 if e.paired else 1)
                    for e in spectrum.entries)
        assert all(diagonalizable_flags(p, spectrum).values()) == flat, name
        assert (total == quotient_dim(p, core) if flat else total < quotient_dim(p, core)), name
        sums[name] = total, quotient_dim(p, core)
    assert len(sums) == 26 + 7
    assert sums["jk2"] == (2, 4) and sums["sl5-0"] == (20, 20)


def test_regular_bracket_on_kernel_is_a_multiple_of_the_form():
    # on Ker P_lambda a regular P_alpha restricts to (alpha - lambda) times the
    # linearization's form (to the form itself at infinity), so the form
    # decides diagonalizability as the P_alpha Gram matrix did; the form is
    # the quotient form of the generator at the other end of the pencil
    seen = 0
    for case in EXACT_POINTS:
        name, p = case.name, case.pencil
        core = core_of(p)
        alpha = core.regular_params[0]
        A_alpha = p.matrix_at(alpha)
        for entry in compute_spectrum(p, core).entries:
            lam = entry.lam
            ker = kernel_basis(p, lam)
            form = kernel_form(p, lam, ker)
            assert form.matrix == quotient_form(p, ker, Fraction(0) if is_inf(lam) else INF)
            factor = 1 if is_inf(lam) else alpha - lam
            gram = [[bilinear(A_alpha, u, v) for v in ker] for u in ker]
            assert gram == [[factor * x for x in row] for row in form.matrix], (name, lam)
            seen += 1
    assert seen == 19   # every point but the three regular Toda points


def test_recursion_operator_properties():
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p)
    qb = quotient_basis(p, core)
    R = recursion_operator(p, qb, Fraction(0), INF)
    # eigenvalue 0 with multiplicity 2 on the two-dimensional quotient
    assert R.matrix == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    # identity at equal parameters
    Rbb = recursion_operator(p, qb, Fraction(2), Fraction(2))
    assert Rbb.matrix == [[1, 0], [0, 1]]
    # composition law R_a^b R_b^c = R_a^c
    a, b, c = Fraction(1), Fraction(2), Fraction(-3)
    Rab = recursion_operator(p, qb, a, b).matrix
    Rbc = recursion_operator(p, qb, b, c).matrix
    Rac = recursion_operator(p, qb, a, c).matrix
    assert mat_mul(Rbc, Rab) == Rac
    # defining identity P_b(R u, v) = P_a(u, v) on the quotient
    Ba = quotient_form(p, qb, a)
    Bb = quotient_form(p, qb, b)
    m = len(qb)
    for u in range(m):
        for v in range(m):
            lhs = sum(Rab[i][u] * Bb[i][v] for i in range(m))
            assert lhs == Ba[u][v]
    # singular beta refused
    with pytest.raises(SingularParameterError):
        recursion_operator(p, qb, Fraction(1), Fraction(0))


def test_recursion_operator_on_an_empty_quotient(kronecker3):
    # a Kronecker pencil has L^perp = L: the operator on the zero quotient is []
    for mode in (EXACT, float_mode()):
        assert recursion_operator(kronecker3, [], Fraction(0), INF, mode).matrix == []


def test_is_diagonalizable_cases():
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p)
    spec = compute_spectrum(p, core)
    flags = diagonalizable_flags(p, spec)
    assert flags == {"0": True}

    # one 2x2 Jordan block at zero is not diagonalizable
    pj = assemble_jk_canonical_pair([KroneckerBlock(0), JordanBlock(Fraction(0), 2)])
    core_j = core_of(pj)
    spec_j = compute_spectrum(pj, core_j)
    flags_j = diagonalizable_flags(pj, spec_j)
    assert not all(flags_j.values())

    # pure Kronecker: vacuously diagonalizable
    pk = assemble_jk_canonical_pair([KroneckerBlock(1)])
    core_k = core_of(pk)
    spec_k = compute_spectrum(pk, core_k)
    flags_k = diagonalizable_flags(pk, spec_k)
    assert flags_k == {}


def test_a_skew_matrix_with_a_large_prime_entry_keeps_its_exact_rank():
    # every parameter has rank 2 over Q, and rank 0 modulo the entry
    P = 2 ** 61 - 1
    A0 = [[Fraction(0), Fraction(P)], [Fraction(-P), Fraction(0)]]
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    assert rank_at(constant_pencil(A0, zero), Fraction(1, 3), EXACT) == 2


def test_spectrum_parameters_are_drawn_by_rank_alone(monkeypatch):
    # t1 and t2 are the core's first two regular parameters, and the only
    # kernel compute_spectrum computes is that of L^perp, from the one
    # elimination pencil makes itself
    kernels = []
    real = pencil.eliminate

    def eliminate(*args, **kwargs):
        kernels.append(1)
        return real(*args, **kwargs)

    for e in catalog():
        p = evaluate_pencil(e.field0, e.field_inf, e.point)
        core = core_of(p)
        kernels.clear()
        monkeypatch.setattr(pencil, "eliminate", eliminate)
        spec = compute_spectrum(p, core)
        monkeypatch.setattr(pencil, "eliminate", real)
        if spec.is_empty():
            continue
        assert len(kernels) == 1, e.name
        assert [spec.recursion.alpha, spec.recursion.beta] == core.regular_params[:2]


def test_compute_spectrum_ranks_only_its_candidates(monkeypatch):
    # no rank is computed to find t1 and t2: every rank_at call verifies a
    # candidate, and every candidate of an exact pencil is kept
    calls, real = [], pencil.rank_at

    def rank_at_spy(p, lam, *args):
        calls.append(lam)
        return real(p, lam, *args)

    points = {e.name: evaluate_pencil(e.field0, e.field_inf, e.point) for e in catalog()}
    points["jk-gaussian"] = assemble_jk_canonical_pair(
        [KroneckerBlock(1), JordanBlock(QQi(Fraction(1), Fraction(2)), 2)])
    for name, p in points.items():
        core = core_of(p)
        calls.clear()
        monkeypatch.setattr(pencil, "rank_at", rank_at_spy)
        spec = compute_spectrum(p, core)
        monkeypatch.setattr(pencil, "rank_at", real)
        kept = [lam for e in spec.entries for lam in ([e.lam, conj(e.lam)] if e.paired else [e.lam])]
        assert sorted(map(lambda_key, calls)) == sorted(map(lambda_key, kept)), name
        assert not set(map(lambda_key, calls)) & set(map(lambda_key, core.regular_params)), name


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_a_rank_the_point_does_not_reach_is_refused_within_the_miss_cap(monkeypatch, mode):
    # at most floor(d/2) values of P^1 are not regular where the rank is
    # attained, so the walk gives up after floor(d/2) + 1 misses: the core
    # raises; an exact attempt reads one elimination, a float one computes
    # one kernel
    cases = [evaluate_pencil(e.field0, e.field_inf, e.point)
             for e in (catalog_by_name()["so4_shift"], catalog_by_name()["so22_shift_saddle_center"])]
    cases.append(toda_pencil_at(make_singular_point(4, seed=1)))
    kernels, real = [], pencil.kernel_basis
    real_elimination = PencilAtPoint.elimination_at
    monkeypatch.setattr(pencil, "kernel_basis", lambda *args: kernels.append(1) or real(*args))
    monkeypatch.setattr(PencilAtPoint, "elimination_at",
                        lambda self, lam: kernels.append(1) or real_elimination(self, lam))
    for p in cases:
        rank, _ = pencil_rank_corank(p, mode)
        kernels.clear()
        with pytest.raises(RankDeficientPointError):
            compute_core(p, mode, rank=rank + 2)
        assert len(kernels) == p.dim // 2 + 1


@pytest.mark.parametrize("name", ["sl2_shift_neg", "so22_shift_saddle_center",
                                  "so22_shift_center_center"])
def test_float_core_perp_has_the_dimension_the_core_gives(name):
    # the rows P_alpha l, l in L, have rank dim L - corank; at these origins
    # L is Ker P_alpha, so the rows are roundoff, and a threshold relative to
    # the largest of them cut L^perp short of the whole space
    e = catalog_by_name()[name]
    p = evaluate_pencil(e.field0, e.field_inf, e.point)
    mode = float_mode()
    rank, _ = pencil_rank_corank(p, mode)
    core = compute_core(p, mode, rank=rank)
    perp = core_perp(p, core, mode)
    assert len(perp) == p.dim - core.dim + core.corank == p.dim
    assert mat_rank(perp, mode) == p.dim
    assert len(core_perp(p, core_of(p), EXACT)) == p.dim


def _dense(field0, field_inf, point, lam, k=None):
    """P_lambda, or d/dx_k of it, entry by entry from the polynomial fields."""
    def value(f, i, j):
        poly = f.entry(i, j) if k is None else diff(f.entry(i, j), k)
        return poly.eval(point)
    d = field0.dim
    if is_inf(lam):
        return [[value(field_inf, i, j) for j in range(d)] for i in range(d)]
    return [[value(field0, i, j) + lam * value(field_inf, i, j) for j in range(d)]
            for i in range(d)]


def test_sparse_pencil_equals_the_dense_formula():
    # every catalog entry at its point and at a random one, and Toda
    # n = 2..4 at a singular and a random point
    lams = (Fraction(0), Fraction(-3, 7), QQi(Fraction(1, 2), Fraction(-2)), INF)
    sp = SamplingPolicy(21)
    cases = [c for e in corpus.catalog() for c in (
        e, corpus.Case(e.name, e.field0, e.field_inf, sp.rational_point(len(e.point))))]
    for case in cases + corpus.toda(range(2, 5)):
        name, f0, finf, point, p = case.name, case.field0, case.field_inf, case.point, case.pencil
        for lam in lams:
            assert p.matrix_at(lam) == _dense(f0, finf, point, lam), (name, lam)
            for k in range(p.dim):
                assert skew(p.dim, p.derivatives[k], lam) == _dense(f0, finf, point, lam, k), \
                    (name, lam, k)
        q = constant_pencil(p.A0, p.Ainf)
        assert q.A0 == p.A0 and q.Ainf == p.Ainf, name
        assert all(a != 0 or b != 0 for entries in [p.entries] + p.derivatives
                   for _, _, a, b in entries), name


def test_one_float_tolerance():
    # the mode's tolerance is its one field: 0 in exact mode, which holds no float
    assert EXACT.tol == 0 and float_mode(1e-6).tol == 1e-6 and not hasattr(EXACT, "eps")
    # float mode meets a float mu; mu at 1 within the tolerance is the
    # parameter at infinity
    assert is_inf(pencil._moebius_to_lambda(1 + 1e-12, Fraction(1), Fraction(2),
                                            float_mode(1e-9)))


def _positive_multiple(M, N):
    """M = c N for one rational c > 0 (both zero counts); M and N may hold
    Gaussian rationals."""
    pairs = [(a, b) for ra, rb in zip(M, N) for a, b in zip(ra, rb)]
    c = next((tidy(Fraction(1) * a / b) for a, b in pairs if b != 0), Fraction(1))
    return isinstance(c, Fraction) and c > 0 and all(a == c * b for a, b in pairs)


def _carrier_matrix(M, lam):
    """The integer form M read as a matrix over the field of ``lam``: None
    unless its cells are all ints, at a rational lam or INF, or all (x, y)
    int pairs, read as x + y sqrt d, at a lam in Q(sqrt d) off Q."""
    if isinstance(lam, QQi) and lam.im:
        if all(type(x) is tuple and len(x) == 2 and all(type(t) is int for t in x)
               for row in M for x in row):
            return [[QQi(x, y, lam.d) for x, y in row] for row in M]
        return None
    return M if all(type(x) is int for row in M for x in row) else None


def test_integer_pencil_decides_as_the_fraction_matrix():
    # the catalog at its points, Toda singular and random points for n = 4,
    # 6, and a JK pair under an integer congruence
    jk = corpus.jk("jk-congruent", [KroneckerBlock(1), JordanBlock(Fraction(-2, 3), 2)],
                   real=False)
    d = jk.pair.dim
    U = [[Fraction(1 if i == j else (i * 3 + j) % 3 - 1 if j > i else 0) for j in range(d)]
         for i in range(d)]
    sampler = SamplingPolicy(31)
    for case in corpus.catalog() + corpus.toda((4, 6)) + [jk.congruent(U)]:
        name, p = case.name, case.pencil
        lams = [INF, Fraction(0)] + [sampler.small_rational(1000, 1000) for _ in range(3)]
        for lam in lams:
            M = p.integer_matrix_at(lam)
            assert all(type(x) is int for row in M for x in row), (name, lam)
            assert _positive_multiple(M, p.matrix_at(lam)), (name, lam)
            assert rank_at(p, lam) == mat_rank(p.matrix_at(lam)), (name, lam)
            assert kernel_basis(p, lam) == nullspace(p.matrix_at(lam)), (name, lam)
        # L^perp comes back as positive multiples of the Fraction kernel's
        # vectors: over Z its primitive integer lines
        core = core_of(p)
        A = p.matrix_at(core.regular_params[0])
        fraction_perp = (nullspace([mat_vec(A, l) for l in core.basis]) if core.basis
                         else identity(p.dim))
        perp = core_perp(p, core)
        assert len(perp) == len(fraction_perp), name
        assert all(_positive_multiple([u], [v]) for u, v in zip(perp, fraction_perp)), name
        if core.basis and not any(isinstance(x, QQi) for v in fraction_perp for x in v):
            assert all(type(x) is int for v in perp for x in v), name


RATIONALS = st.fractions(-3, 3, max_denominator=4)
PARAMETERS = st.fractions(-4, 4, max_denominator=5)


def _skew_pairs(values):
    """(d, values of (a0, ainf) over the d(d-1)/2 upper cells), d = 2..6."""
    return st.integers(2, 6).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.tuples(values, values),
                             min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2)))


def _off_q(d):
    """Values a + b sqrt d of Q(sqrt d) with b != 0."""
    return st.builds(QQi, PARAMETERS, st.fractions(-4, 4, max_denominator=7).filter(bool),
                     st.just(d))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    # real rational pencils at lambda in Q, Q(i), Q(sqrt 2), Q(sqrt -3) and INF
    st.tuples(_skew_pairs(RATIONALS),
              st.one_of(st.just(INF), PARAMETERS, _off_q(-1), _off_q(2), _off_q(-3))),
    # pencils with Gaussian entries, at lambda in their field Q(i)
    st.tuples(_skew_pairs(st.one_of(RATIONALS, st.builds(QQi, RATIONALS, RATIONALS))),
              st.one_of(st.just(INF), PARAMETERS, _off_q(-1)))))
def test_integer_pencil_of_random_skew_pairs(case):
    (d, values), lam = case
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    p = PencilAtPoint(d, [(i, j, a, b) for (i, j), (a, b) in zip(upper, values)
                          if a != 0 or b != 0], [Fraction(0)] * d)
    M = p.integer_matrix_at(lam)
    if all(isinstance(x, (int, Fraction)) for _, _, *pair in p.entries for x in pair):
        A = _carrier_matrix(M, lam)
        assert A is not None and _positive_multiple(A, p.matrix_at(lam))
    else:
        assert M is None
    assert rank_at(p, lam) == mat_rank(p.matrix_at(lam))
    assert kernel_basis(p, lam) == nullspace(p.matrix_at(lam))


def test_inexact_or_gaussian_input_takes_the_true_matrix(monkeypatch):
    gaussian = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(QQi(1, 2), 1)])
    real = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(1, 2), 1)])
    floats = constant_pencil([[float(x) for x in row] for row in real.A0], real.Ainf)
    i = QQi(Fraction(0), Fraction(1))
    assert gaussian.integer_matrix_at(Fraction(1, 3)) is None
    assert floats.integer_matrix_at(Fraction(1, 3)) is None
    # at a Gaussian lambda a real rational pencil still has its integer
    # multiple, in the rows of Z[i]: (x, y) int pairs, x + y i
    gaussian_multiple = real.integer_matrix_at(i)
    assert any(y for row in gaussian_multiple for _, y in row)
    A = _carrier_matrix(gaussian_multiple, i)
    assert A is not None and _positive_multiple(A, real.matrix_at(i))
    assert real.integer_matrix_at(0.5) is None
    # a Gaussian pencil decides through its elimination too: of P_lambda
    # itself over Z[i], made once and kept
    lam = Fraction(1, 3)
    e = gaussian.elimination_at(lam)
    assert e is gaussian.elimination_at(lam) and e.K.d == -1
    assert (e.rank, e.kernel) == (mat_rank(gaussian.matrix_at(lam)),
                                  nullspace(gaussian.matrix_at(lam)))
    # exact mode holds no float: a float pencil is refused, by the value
    for decide in (rank_at, kernel_basis):
        with pytest.raises(PreconditionError, match="exact mode cannot hold the inexact value"):
            decide(floats, Fraction(1, 3), EXACT)
    cases = [(gaussian, Fraction(1, 3), EXACT),
             (real, i, EXACT), (real, QQi(Fraction(1, 2), Fraction(0)), EXACT),
             (real, Fraction(1, 2), float_mode(1e-9))]
    expected = [(mat_rank(p.matrix_at(lam), mode), nullspace(p.matrix_at(lam), mode))
                for p, lam, mode in cases]
    core = core_of(real)
    perp = core_perp(real, core)
    # float mode reads the integer form for its values, but never decides exactly
    for name in ("mat_rank_exact", "nullspace_exact"):
        monkeypatch.setattr(exactlin, name, lambda M: pytest.fail("float mode decided exactly"))
    p, lam, mode = cases.pop()
    assert (rank_at(p, lam, mode), kernel_basis(p, lam, mode)) == expected.pop()
    A = exactlin.to_numpy(p.matrix_at(lam))
    assert rank_at(p, lam, mode) == exactlin.svd_rank(A, mode.tol)
    assert kernel_basis(p, lam, mode) == exactlin.nullspace_float(A, mode.tol)
    assert len(core_perp(real, core, mode)) == len(perp)
    monkeypatch.undo()
    for (p, lam, mode), want in zip(cases, expected):
        assert (rank_at(p, lam, mode), kernel_basis(p, lam, mode)) == want, (p, lam)


def test_a_gaussian_pencil_eliminates_each_pencil_matrix_once(monkeypatch):
    # entries off Q have no integer form, and P_lambda itself is eliminated,
    # once per lambda: the rank samples, the core walk, the spectrum's check
    # and the kernel at the spectrum value read one elimination each
    p = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(QQi(1, 2), 2)])
    inputs, real = [], exactlin._bareiss
    monkeypatch.setattr(exactlin, "_bareiss",
                        lambda K, A: inputs.append([list(row) for row in A]) or real(K, A))
    rank, _ = pencil_rank_corank(p)
    core = compute_core(p, rank=rank)
    spectrum = compute_spectrum(p, core)
    kernels = [kernel_basis(p, e.lam) for e in spectrum.entries]
    monkeypatch.undo()
    assert [e.lam for e in spectrum.entries] == [QQi(1, 2)] and kernels[0]

    def eliminations(lam):
        M = p.matrix_at(lam)
        K = exactlin.carrier(quadratic_field(x for row in M for x in row))
        return inputs.count([K.clear(row) for row in M])

    walked = (list(islice(height_walk(), p.dim // 2)) + [INF] + core.regular_params
              + [QQi(1, 2)])
    assert {lambda_key(lam): eliminations(lam) for lam in walked} == \
        {lambda_key(lam): 1 for lam in walked}


def test_the_core_walk_eliminates_only_the_pencil_matrices(monkeypatch):
    # the core's span keeps its echelon across the walk: an exact elimination
    # runs once per walked P_lambda, on its primitive integer rows, and never
    # on the kernels joined so far
    p = toda_pencil_at(random_point(8, 1))
    inputs, real = [], exactlin._bareiss
    monkeypatch.setattr(exactlin, "_bareiss",
                        lambda K, A: inputs.append([list(row) for row in A]) or real(K, A))
    core = compute_core(p, rank=p.dim - 2)
    monkeypatch.undo()
    walked = list(islice(height_walk(), len(inputs)))
    assert core.regular_params == walked and len(walked) > 2
    assert inputs == [[exactlin.primitive_row(row) for row in p.integer_matrix_at(lam)]
                      for lam in walked]


@pytest.mark.parametrize("case", [next(c for c in corpus.catalog() if c.name == "so4_shift"),
                                  corpus.toda_singular(4, 1)], ids=lambda case: case.name)
def test_float_analysis_decomposes_each_pencil_matrix_once(case, monkeypatch):
    # float mode keeps one SVD per P_lambda beside the eliminations: the rank
    # samples, the core walk, the spectrum's checks and the kernels at the
    # spectrum values read it, so no two np.linalg.svd calls decompose a
    # P_lambda built at the same lambda, an array equal to it
    built, decomposed = [], []
    real_matrix, real_svd = PencilAtPoint.float_matrix_at, np.linalg.svd

    def matrix(self, lam):
        A = real_matrix(self, lam)
        built.append((lam, A))
        return A

    monkeypatch.setattr(PencilAtPoint, "float_matrix_at", matrix)
    monkeypatch.setattr(np.linalg, "svd",
                        lambda A, *args, **kwargs: decomposed.append(A) or real_svd(A, *args,
                                                                                     **kwargs))
    rep = analyze_point(case.field0, case.field_inf, case.point, float_mode(),
                        declared_rank=case.rank)
    monkeypatch.undo()
    assert rep.verdict.kind == "NonDegenerate" and rep.warnings == []
    svds = {}
    for A in decomposed:
        lams = {lambda_key(lam) for lam, B in built if B is A}
        assert len(lams) <= 1
        for key in lams:
            svds.setdefault(key, []).append(A)
    assert all(len(arrays) == 1 for arrays in svds.values()), \
        {key: len(arrays) for key, arrays in svds.items()}
    samples = list(islice(height_walk(), len(case.point) // 2)) + [INF]
    assert {lambda_key(lam) for lam in samples} <= svds.keys()
    assert {lambda_key(e.lam) for e in rep.spectrum.entries} <= svds.keys()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(*[st.one_of(st.just(Fraction(0)),
                                               st.fractions(-5, 5, max_denominator=7))] * 2),
                         min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2))),
       st.fractions(-4, 4, max_denominator=9), st.floats(-4, -1e-3),
       st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False))
def test_float_matrix_holds_the_bits_of_the_converted_matrix(pair, frac, neg, cplx):
    """float_matrix_at converts each exact value once, and holds the bits of
    P_lambda built in exact arithmetic and converted entry by entry: zero a0
    or ainf entries make the signed zeros of the lower cells appear."""
    d, values = pair
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    p = PencilAtPoint(d, [(i, j, a, b) for (i, j), (a, b) in zip(upper, values)
                          if a != 0 or b != 0], [Fraction(0)] * d)
    for lam in (INF, Fraction(0), frac, neg, cplx):
        assert np.asarray(p.float_matrix_at(lam)).tobytes() == \
            complex_array(p.matrix_at(lam)).tobytes(), lam


def test_float_decisions_build_no_dense_matrix(monkeypatch):
    """Float-mode rank, kernel and L^perp at a rational, an infinite and a
    float lambda read float_matrix_at: no P_lambda is built in exact arithmetic."""
    e = catalog_by_name()["so4_shift"]
    p = evaluate_pencil(e.field0, e.field_inf, e.point)
    mode = float_mode(1e-9)
    rank, _ = pencil_rank_corank(p)
    core = compute_core(p, mode, rank=rank)
    lams = [Fraction(2, 3), INF, -0.75]
    expected = [(mat_rank(p.matrix_at(lam), mode), nullspace(p.matrix_at(lam), mode))
                for lam in lams]
    perp = core_perp(p, core, mode)
    monkeypatch.setattr(tensorfield, "skew",
                        lambda *args: pytest.fail("a dense P_lambda was built"))
    for lam, want in zip(lams, expected):
        assert (rank_at(p, lam, mode), kernel_basis(p, lam, mode)) == want, lam
    assert core_perp(p, core, mode) == perp


def test_gaussian_decisions_on_a_real_pencil_build_no_dense_matrix(monkeypatch):
    """Exact rank and kernel at a Gaussian lambda on a real rational pencil
    start from the cleared integers: no P_lambda is built in Q(i) arithmetic."""
    real = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(1, 2), 1)])
    U = [[Fraction(1 if i == j else (i + 2 * j) % 3 - 1 if j > i else 0) for j in range(real.dim)]
         for i in range(real.dim)]
    cases = [(p, lam) for p in (real, congruent_pair(real, U))
             for lam in (QQi(0, 1), QQi(Fraction(1, 2), Fraction(-2, 3)), QQi(3, Fraction(1, 5)))]
    expected = [(mat_rank(p.matrix_at(lam)), nullspace(p.matrix_at(lam))) for p, lam in cases]
    monkeypatch.setattr(tensorfield, "skew",
                        lambda *args: pytest.fail("a dense P_lambda was built"))
    for (p, lam), want in zip(cases, expected):
        assert (rank_at(p, lam), kernel_basis(p, lam)) == want, lam


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rank_samples_are_enough_and_tight(m, monkeypatch):
    # d = 2m with a Jordan block at each of the walk's first m values, the
    # worst case for the fixed samples: every finite sample drops rank, and
    # only infinity is generic
    eigs = list(islice(height_walk(), m))
    samples, real = [], pencil.rank_at

    def rank_at_spy(p, lam, *args):
        samples.append(lam)
        return real(p, lam, *args)

    monkeypatch.setattr(pencil, "rank_at", rank_at_spy)
    p = assemble_jk_canonical_pair([JordanBlock(lam, 1) for lam in eigs])
    assert pencil_rank_corank(p) == (2 * m, 0) and samples == eigs + [INF]
    assert all(rank_at(p, lam) < 2 * m for lam in eigs)
    # one block moved to infinity: the rank comes from the one generic rational
    q = assemble_jk_canonical_pair([JordanBlock(lam, 1) for lam in eigs[:-1]]
                                   + [JordanBlock(INF, 1)])
    samples.clear()
    assert pencil_rank_corank(q) == (2 * m, 0) and samples == eigs + [INF]
    assert all(rank_at(q, lam) < 2 * m for lam in eigs[:-1] + [INF])


def test_early_stops_agree_with_the_longer_rules():
    # the catalog at its points, Toda singular and random points for
    # n = 2..8, and the canonical pairs of the benchmark's JK block lists
    for case in corpus.catalog() + corpus.toda(range(2, 9)) + corpus.jk_pairs(real=False):
        name, p = case.name, case.pencil
        rank, corank = pencil_rank_corank(p)
        assert (rank, corank) == rank_corank_over_d_plus_two(p), name
        core = compute_core(p, rank=rank)
        old = core_until_two_idle(p, rank=rank)
        assert core.basis == old.basis, name
        # the old sequence, cut after its first idle step or at dim L's bound,
        # but not before its second step
        full, cut = p.dim - rank // 2, 0
        while cut < len(old.dim_sequence) and old.dim_sequence[cut] not in (
                full, old.dim_sequence[cut - 1] if cut else 0):
            cut += 1
        cut = max(cut, 1)
        assert core.dim_sequence == old.dim_sequence[:cut + 1], name
        assert core.regular_params == old.regular_params[:cut + 1], name
        if quotient_dim(p, core) == 0:
            assert core.dim == full, name


def test_a_diagonalizable_spectrum_fills_the_quotient():
    # where every lambda is diagonalizable, each Jordan block at lambda is a
    # 2 x 2 pair, which adds 2 to dim Ker P_lambda - corank and 2 to
    # dim L^perp / L; so the sum of kernel_dim - corank over the spectrum, a
    # paired entry counted for both conjugates, is dim L^perp / L, and a
    # lambda that the roots of R's characteristic polynomial miss breaks it.
    # Every lambda of these points is diagonalizable: the catalog at its
    # points, Toda n = 4, 6, 8 at the singular points of seeds 1 and 2 and at
    # a random point, and the rank-0 sl(n) points n = 3..5.
    nonempty = 0
    cases = (corpus.catalog() + corpus.toda((4, 6, 8), seeds=(1, 2))
             + [corpus.sl(n, 0) for n in (3, 4, 5)])
    for case in cases:
        name, p = case.name, case.pencil
        core = core_of(p)
        spectrum = compute_spectrum(p, core)
        assert all(diagonalizable_flags(p, spectrum).values()), name
        count = sum((e.kernel_dim - spectrum.corank) * (2 if e.paired else 1)
                    for e in spectrum.entries)
        assert count == quotient_dim(p, core), name
        nonempty += count > 0
    assert nonempty == 13 + 6 + 3
