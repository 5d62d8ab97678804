from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipencil.catalog import catalog, catalog_by_name
from bipencil.errors import SingularParameterError
from bipencil.exactlin import bilinear, identity, mat_mul, mat_rank, mat_vec, nullspace
from bipencil import exactlin, pencil
from bipencil.jk import JordanBlock, KroneckerBlock, assemble_jk_canonical_pair, congruent_pair
from bipencil.linearization import kernel_form
from bipencil.pencil import (compute_core, compute_spectrum, core_perp, kernel_basis,
                             pencil_rank_corank, quotient_basis, quotient_dim, quotient_dim_mod_p,
                             quotient_form, rank_at, recursion_operator,
                             regular_parameters)
from bipencil.sampling import SamplingPolicy
from bipencil.scalars import EXACT, INF, QQi, float_mode, is_inf
from bipencil.tensorfield import PencilAtPoint, constant_pencil, evaluate_pencil
from bipencil.toda import make_singular_point, random_point, toda_pencil

from oracles.stops import core_until_two_idle, rank_corank_over_d_plus_two
from oracles.toda import constant_lattice, toda_pencil_at
from pipeline import core_of, diagonalizable_flags, spectrum_of


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
    assert p.derivative_at(Fraction(0), 2)[0][1] == 1
    # constant generator: derivatives vanish
    assert all(v == 0 for k in range(3) for row in p.derivative_at(INF, k) for v in row)


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
    assert spectrum_of(kronecker3, sampler).is_empty()


def test_spectrum_so3_origin(so3_shift_pencil, sampler):
    spec = spectrum_of(so3_shift_pencil, sampler)
    assert [ (e.lam, e.kernel_dim) for e in spec.entries ] == [(Fraction(0), 3)]


def test_spectrum_toda_singular(sampler, monkeypatch):
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p, sampler)
    # the spectrum takes the pencil rank from the core and never computes it
    def no_rank(*args, **kwargs):
        raise AssertionError("pencil rank recomputed")
    monkeypatch.setattr(pencil, "pencil_rank_corank", no_rank)
    spec = compute_spectrum(p, core, sampler)
    assert [(e.lam, e.kernel_dim) for e in spec.entries] == [(Fraction(0), 4)]


def test_core_kronecker(kronecker3, sampler):
    core = core_of(kronecker3, sampler)
    # kernels (0, -lam, 1) for two values of lam span the last two coordinates
    assert core.dim == 2
    target = [[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert mat_rank(core.basis + target) == 2


def test_core_so3(so3_shift_pencil, sampler):
    core = core_of(so3_shift_pencil, sampler)
    assert core.dim == 1
    # the kernel of the constant form is the third coordinate direction
    assert core.basis[0][0] == 0 and core.basis[0][1] == 0 and core.basis[0][2] != 0


def test_core_toda_singular(sampler):
    # all regular kernels coincide at this point, so L is two-dimensional and
    # meets Ker P_0 (the whole space) in corank-many dimensions
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p, sampler)
    assert core.dim == 2
    assert core.corank == 2


def test_quotient_form_regular_vs_singular(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p, sampler)
    qb = quotient_basis(p, core)
    assert len(qb) == 2
    B_reg = quotient_form(p, qb, Fraction(3))
    assert mat_rank(B_reg) == 2                       # non-degenerate at regular lambda
    B_sing = quotient_form(p, qb, Fraction(0))
    # kernel dimension = dim Ker P_0 - corank in the diagonalizable case
    assert len(qb) - mat_rank(B_sing) == 4 - 2


def test_quotient_dimension_zero_for_kronecker(kronecker3, sampler):
    core = core_of(kronecker3, sampler)
    assert quotient_basis(kronecker3, core) == []


def exact_points():
    """22 exact points: the catalog, Toda singular and random points for
    n = 3, 4, 5, and JK pairs with a Jordan block at 1/3, infinity and 1+2i."""
    points = {e.name: evaluate_pencil(e.field0, e.field_inf, e.point) for e in catalog()}
    for n in (3, 4, 5):
        points[f"toda-singular-{n}"] = toda_pencil_at(make_singular_point(n, seed=1))
        points[f"toda-random-{n}"] = toda_pencil_at(random_point(n, 3))
    for name, lam in (("rational", Fraction(1, 3)), ("infinity", INF),
                      ("gaussian", QQi(Fraction(1), Fraction(2)))):
        points[f"jk-{name}"] = assemble_jk_canonical_pair(
            [KroneckerBlock(1), JordanBlock(lam, 2)])
    assert len(points) == 22
    return points


def test_quotient_dim_counts_quotient_basis(sampler):
    # dim - 2 dim L + corank is the size of the quotient basis, at points with
    # and without Jordan blocks
    dims = {}
    for name, p in exact_points().items():
        core = core_of(p, sampler)
        dims[name] = quotient_dim(p, core)
        assert dims[name] == len(quotient_basis(p, core)), name
    assert dims["jk-gaussian"] == 4 and dims["toda-random-4"] == 0


def test_regular_bracket_on_kernel_is_a_multiple_of_the_form(sampler):
    # on Ker P_lambda a regular P_alpha restricts to (alpha - lambda) times the
    # linearization's form (to the form itself at infinity), so the form
    # decides diagonalizability as the P_alpha Gram matrix did; the form is
    # the quotient form of the generator at the other end of the pencil
    seen = 0
    for name, p in exact_points().items():
        core = core_of(p, sampler)
        alpha = core.regular_params[0]
        A_alpha = p.matrix_at(alpha)
        for entry in compute_spectrum(p, core, sampler.spawn(3)).entries:
            lam = entry.lam
            ker = kernel_basis(p, lam)
            form = kernel_form(p, lam, ker)
            assert form == quotient_form(p, ker, Fraction(0) if is_inf(lam) else INF)
            factor = 1 if is_inf(lam) else alpha - lam
            gram = [[bilinear(A_alpha, u, v) for v in ker] for u in ker]
            assert gram == [[factor * x for x in row] for row in form], (name, lam)
            seen += 1
    assert seen == 19   # every point but the three regular Toda points


def test_recursion_operator_properties(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p, sampler)
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


def test_is_diagonalizable_cases(sampler):
    p = toda_pencil_at(constant_lattice(2))
    core = core_of(p, sampler)
    spec = compute_spectrum(p, core, sampler.spawn(1))
    flags = diagonalizable_flags(p, spec)
    assert flags == {"0": True}

    # one 2x2 Jordan block at zero is not diagonalizable
    pj = assemble_jk_canonical_pair([KroneckerBlock(0), JordanBlock(Fraction(0), 2)])
    core_j = core_of(pj, sampler.spawn(2))
    spec_j = compute_spectrum(pj, core_j, sampler.spawn(3))
    flags_j = diagonalizable_flags(pj, spec_j)
    assert not all(flags_j.values())

    # pure Kronecker: vacuously diagonalizable
    pk = assemble_jk_canonical_pair([KroneckerBlock(1)])
    core_k = core_of(pk, sampler.spawn(4))
    spec_k = compute_spectrum(pk, core_k, sampler.spawn(5))
    flags_k = diagonalizable_flags(pk, spec_k)
    assert flags_k == {}


def test_a_skew_matrix_of_rank_zero_mod_p_is_not_taken_for_regular():
    P = exactlin.PRIME
    A0 = [[Fraction(0), Fraction(P)], [Fraction(-P), Fraction(0)]]
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    # every draw has rank 2 over Q and rank 0 mod P: F_P finds no regular
    # draw, so it proves nothing, and the exact rank sees the rank
    assert quotient_dim_mod_p(constant_pencil(A0, zero), SamplingPolicy(1), rank=2) is None
    assert rank_at(constant_pencil(A0, zero), Fraction(1, 3), EXACT) == 2
    # a Gaussian entry has no residue: F_P proves nothing
    i = QQi(Fraction(0), Fraction(1))
    assert quotient_dim_mod_p(constant_pencil([[0, i], [-i, 0]], zero), SamplingPolicy(1),
                              rank=2) is None


def test_spectrum_parameters_are_drawn_by_rank_alone(monkeypatch):
    # t1 and t2 are the draws regular_parameters would take, but the only
    # kernel compute_spectrum computes is that of L^perp
    kernels = []
    real = pencil.nullspace

    def nullspace(*args, **kwargs):
        kernels.append(1)
        return real(*args, **kwargs)

    for e in catalog():
        p = evaluate_pencil(e.field0, e.field_inf, e.point)
        sampler = SamplingPolicy(5)
        core = core_of(p, sampler)
        kernels.clear()
        monkeypatch.setattr(pencil, "nullspace", nullspace)
        spec = compute_spectrum(p, core, sampler)
        monkeypatch.setattr(pencil, "nullspace", real)
        if spec.is_empty():
            continue
        assert len(kernels) == 1, e.name
        drawn = regular_parameters(p, sampler.spawn(3), 2, rank=p.dim - core.corank)
        assert [spec.recursion.alpha, spec.recursion.beta] == [lam for lam, _ in drawn]


def _pencil_cases():
    """(name, field0, field_inf, point): every catalog entry at its point and at
    a random one, and Toda n = 2..4 at a singular and a random point."""
    sp = SamplingPolicy(21)
    for e in catalog():
        yield e.name, e.field0, e.field_inf, e.point
        yield e.name, e.field0, e.field_inf, sp.rational_point(e.field0.dim)
    for n in range(2, 5):
        p0, pinf = toda_pencil(n)
        for pt in (make_singular_point(n, seed=1), random_point(n, seed=n)):
            yield f"toda{n}", p0, pinf, pt.coordinates()


def _dense(field0, field_inf, point, lam, k=None):
    """P_lambda, or d/dx_k of it, entry by entry from the polynomial fields."""
    def value(f, i, j):
        poly = f.entry(i, j) if k is None else f.entry(i, j).diff(k)
        return poly.eval(point)
    d = field0.dim
    if is_inf(lam):
        return [[value(field_inf, i, j) for j in range(d)] for i in range(d)]
    return [[value(field0, i, j) + lam * value(field_inf, i, j) for j in range(d)]
            for i in range(d)]


def test_sparse_pencil_equals_the_dense_formula():
    lams = (Fraction(0), Fraction(-3, 7), QQi(Fraction(1, 2), Fraction(-2)), INF)
    for name, f0, finf, point in _pencil_cases():
        p = evaluate_pencil(f0, finf, point)
        for lam in lams:
            assert p.matrix_at(lam) == _dense(f0, finf, point, lam), (name, lam)
            for k in range(p.dim):
                assert p.derivative_at(lam, k) == _dense(f0, finf, point, lam, k), (name, lam, k)
        q = constant_pencil(p.A0, p.Ainf)
        assert q.A0 == p.A0 and q.Ainf == p.Ainf, name
        assert all(a != 0 or b != 0 for entries in [p.entries] + p.derivatives
                   for _, _, a, b in entries), name


def test_one_float_tolerance():
    assert EXACT.tol == 1e-9 and float_mode(1e-6).tol == 1e-6
    # exact mode meets a float mu where R's eigenvalue is irrational; mu at
    # 1 within the tolerance is the parameter at infinity
    assert is_inf(pencil._moebius_to_lambda(1 + 1e-12, Fraction(1), Fraction(2), EXACT))


def _integer_cases():
    """The catalog at its points, Toda singular and random points for n = 4, 6,
    and a JK pair under an integer congruence."""
    for e in catalog():
        yield e.name, evaluate_pencil(e.field0, e.field_inf, e.point)
    for n in (4, 6):
        yield f"toda-singular-{n}", toda_pencil_at(make_singular_point(n, seed=1))
        yield f"toda-random-{n}", toda_pencil_at(random_point(n, n))
    p = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(-2, 3), 2)])
    U = [[Fraction(1 if i == j else (i * 3 + j) % 3 - 1 if j > i else 0) for j in range(p.dim)]
         for i in range(p.dim)]
    yield "jk-congruent", congruent_pair(p, U)


def _positive_multiple(M, N):
    """M = c N for one rational c > 0 (both zero counts)."""
    pairs = [(a, b) for ra, rb in zip(M, N) for a, b in zip(ra, rb)]
    c = next((Fraction(a) / b for a, b in pairs if b != 0), Fraction(1))
    return c > 0 and all(a == c * b for a, b in pairs)


def test_integer_pencil_decides_as_the_fraction_matrix():
    sampler = SamplingPolicy(31)
    for name, p in _integer_cases():
        lams = [INF, Fraction(0)] + [sampler.rational() for _ in range(3)]
        for lam in lams:
            M = p.integer_matrix_at(lam)
            assert all(type(x) is int for row in M for x in row), (name, lam)
            assert _positive_multiple(M, p.matrix_at(lam)), (name, lam)
            assert rank_at(p, lam) == mat_rank(p.matrix_at(lam)), (name, lam)
            assert kernel_basis(p, lam) == nullspace(p.matrix_at(lam)), (name, lam)
        core = core_of(p, sampler.spawn(1))
        A = p.matrix_at(core.regular_params[0])
        fraction_perp = (nullspace([mat_vec(A, l) for l in core.basis]) if core.basis
                         else identity(p.dim))
        assert core_perp(p, core) == fraction_perp, name


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4),
                                   st.fractions(-3, 3, max_denominator=4)),
                         min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2))),
       st.one_of(st.just(INF), st.fractions(-4, 4, max_denominator=5)))
def test_integer_pencil_of_random_skew_pairs(pair, lam):
    d, values = pair
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    p = PencilAtPoint(d, [(i, j, a, b) for (i, j), (a, b) in zip(upper, values)
                          if a != 0 or b != 0], [Fraction(0)] * d)
    assert _positive_multiple(p.integer_matrix_at(lam), p.matrix_at(lam))
    assert rank_at(p, lam) == mat_rank(p.matrix_at(lam))
    assert kernel_basis(p, lam) == nullspace(p.matrix_at(lam))


def test_inexact_or_gaussian_input_takes_the_true_matrix(monkeypatch):
    gaussian = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(QQi(1, 2), 1)])
    real = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(1, 2), 1)])
    floats = constant_pencil([[float(x) for x in row] for row in real.A0], real.Ainf)
    i = QQi(Fraction(0), Fraction(1))
    assert gaussian.integer_matrix_at(Fraction(1, 3)) is None
    assert floats.integer_matrix_at(Fraction(1, 3)) is None
    assert real.integer_matrix_at(i) is None and real.integer_matrix_at(0.5) is None
    cases = [(gaussian, Fraction(1, 3), EXACT), (floats, Fraction(1, 3), EXACT),
             (real, i, EXACT), (real, QQi(Fraction(1, 2), Fraction(0)), EXACT),
             (real, Fraction(1, 2), float_mode(1e-9))]
    expected = [(mat_rank(p.matrix_at(lam), mode), nullspace(p.matrix_at(lam), mode))
                for p, lam, mode in cases]
    core = core_of(real, SamplingPolicy(3))
    perp = core_perp(real, core)
    # float mode never reads the integer form
    monkeypatch.setattr(PencilAtPoint, "integer_matrix_at",
                        lambda self, lam: pytest.fail("float mode read the integer form"))
    p, lam, mode = cases.pop()
    assert (rank_at(p, lam, mode), kernel_basis(p, lam, mode)) == expected.pop()
    assert len(core_perp(real, core, mode)) == len(perp)
    monkeypatch.undo()
    for (p, lam, mode), want in zip(cases, expected):
        assert (rank_at(p, lam, mode), kernel_basis(p, lam, mode)) == want, (p, lam)


class EigenvaluesFirst(SamplingPolicy):
    """A sampler whose distinct_rationals(k) starts with the given finite
    eigenvalues of the pencil, the worst draws a sampler could make."""

    def __init__(self, eigenvalues):
        super().__init__(0)
        self.eigenvalues, self.counts = eigenvalues, []

    def distinct_rationals(self, count, exclude=()):
        self.counts.append(count)
        head = self.eigenvalues[:count]
        return head + super().distinct_rationals(count - len(head), exclude=head)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rank_samples_are_enough_and_tight(m):
    # d = 2m with a Jordan block at each of 1..m: every finite sample drops
    # rank, and only infinity is generic
    eigs = [Fraction(i) for i in range(1, m + 1)]
    p = assemble_jk_canonical_pair([JordanBlock(lam, 1) for lam in eigs])
    sampler = EigenvaluesFirst(eigs)
    assert pencil_rank_corank(p, sampler) == (2 * m, 0) and sampler.counts == [m]
    assert all(rank_at(p, lam) < 2 * m for lam in eigs)
    # one block moved to infinity: the rank comes from the one generic rational
    q = assemble_jk_canonical_pair([JordanBlock(lam, 1) for lam in eigs[:-1]]
                                   + [JordanBlock(INF, 1)])
    sampler = EigenvaluesFirst(eigs[:-1])
    assert pencil_rank_corank(q, sampler) == (2 * m, 0) and sampler.counts == [m]
    assert all(rank_at(q, lam) < 2 * m for lam in eigs[:-1] + [INF])


# the Jordan-Kronecker pairs of the benchmark's jk-congruent workload
JK_PAIRS = [
    [KroneckerBlock(1), JordanBlock(Fraction(1, 2), 1)],
    [KroneckerBlock(1), JordanBlock(QQi(Fraction(1), Fraction(1)), 1)],
    [KroneckerBlock(0), KroneckerBlock(2), JordanBlock(INF, 2)],
    [KroneckerBlock(1), JordanBlock(Fraction(-2), 2), JordanBlock(INF, 1),
     JordanBlock(Fraction(3), 1)],
    [KroneckerBlock(2), KroneckerBlock(1), JordanBlock(Fraction(1, 3), 2),
     JordanBlock(QQi(Fraction(0), Fraction(1)), 1)],
]


def _stop_cases():
    """The catalog at its points, Toda singular and random points for
    n = 2..8, and the benchmark's JK pairs."""
    for e in catalog():
        yield e.name, evaluate_pencil(e.field0, e.field_inf, e.point)
    for n in range(2, 9):
        yield f"toda-singular-{n}", toda_pencil_at(make_singular_point(n, seed=1))
        yield f"toda-random-{n}", toda_pencil_at(random_point(n, n))
    for k, blocks in enumerate(JK_PAIRS):
        yield f"jk-{k}", assemble_jk_canonical_pair(blocks)


def test_early_stops_agree_with_the_longer_rules():
    for k, (name, p) in enumerate(_stop_cases()):
        sampler = SamplingPolicy(50 + k)
        rank, corank = pencil_rank_corank(p, sampler.spawn(1))
        assert (rank, corank) == rank_corank_over_d_plus_two(p, sampler.spawn(1)), name
        core = compute_core(p, sampler.spawn(2), rank=rank)
        old = core_until_two_idle(p, sampler.spawn(2), rank=rank)
        assert core.basis == old.basis, name
        # the old sequence, cut after its first idle step or at dim L's bound
        full, cut = p.dim - rank // 2, 0
        while cut < len(old.dim_sequence) and old.dim_sequence[cut] not in (
                full, old.dim_sequence[cut - 1] if cut else 0):
            cut += 1
        assert core.dim_sequence == old.dim_sequence[:cut + 1], name
        assert core.regular_params == old.regular_params[:cut + 1], name
        if quotient_dim(p, core) == 0:
            assert core.dim == full, name
