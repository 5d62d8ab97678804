import json
import os
from dataclasses import astuple
from fractions import Fraction
from itertools import islice

import pytest

from bipencil import analyzer, cli, exactlin, liealg, linearization, pencil, roots
from bipencil.analyzer import analyze_point
from bipencil.catalog import catalog, catalog_by_name
from bipencil.errors import NonRationalPointError, PreconditionError, RankDeficientPointError
from bipencil.exactlin import mat_mul, mat_vec, nullspace
from bipencil.io import dump_canonical, pencil_to_json_dict
from bipencil.jk import JordanBlock, KroneckerBlock, jk_invariants
from bipencil.pencil import compute_core, point_walk, quotient_basis, recursion_operator
from bipencil.poly import Poly
from bipencil.scalars import EXACT, INF, QQi, float_mode, lambda_key
from bipencil.tensorfield import PencilAtPoint, PoissonTensorField, evaluate_pencil
from bipencil.toda import make_singular_point, random_point, toda_pencil

from golden import fixture_dir, report_text
from oracles.casimir import (casimir_variation, combine_function_data, function_data,
                             quotient_operator, reparameterize_casimir_combination)
from oracles.fields import diff, direct_sum, shift
from oracles import corpus
from oracles.toda import constant_lattice
from pipeline import core_of, forbid_floats, linearize_at

F = Fraction
JK = corpus.jk_pairs()


def so3_pencil_at(point):
    e = catalog_by_name()["so3_shift"]
    return e, evaluate_pencil(e.field0, e.field_inf, point)


# ---------------------------------------------------------------------------
# analyze_point
# ---------------------------------------------------------------------------

def test_analyze_so3_elliptic():
    e = catalog_by_name()["so3_shift"]
    rep = analyze_point(e.field0, e.field_inf, e.point, declared_rank=2)
    assert rep.verdict.kind == "NonDegenerate"
    assert astuple(rep.total_type) == (1, 0, 0)
    assert rep.point_rank == 0
    assert rep.pencil_rank == 2 and rep.corank == 1


def test_analyze_so31_focus():
    e = catalog_by_name()["so31_shift"]
    rep = analyze_point(e.field0, e.field_inf, e.point, declared_rank=4)
    assert rep.verdict.kind == "NonDegenerate"
    assert astuple(rep.total_type) == (0, 0, 1)


def test_analyze_bad_example_degenerate():
    e = catalog_by_name()["bad_example"]
    rep = analyze_point(e.field0, e.field_inf, e.point, declared_rank=2)
    assert rep.verdict.kind == "Degenerate"
    assert rep.verdict.reason.startswith("RootsDependent")
    assert rep.total_type is None


def test_analyze_regular_point():
    e = catalog_by_name()["so3_shift"]
    rep = analyze_point(e.field0, e.field_inf, [F(1), F(1, 2), F(-1)], declared_rank=2)
    assert rep.verdict.kind == "Regular"
    assert rep.spectrum.is_empty() and rep.per_lambda == []


def test_analyze_refuses_rank_deficient_point():
    # the lattice field degenerates where all a_i vanish, so declaring the
    # generic rank makes such a point refusable
    p0, pinf = toda_pencil(2)
    with pytest.raises(RankDeficientPointError):
        analyze_point(p0, pinf, [F(0), F(0), F(1), F(2)], declared_rank=2)


def test_analyze_refuses_a_point_below_the_sampled_rank_off_a_hyperplane():
    # (x1 + x2) d1^d2 and 2 (x1 + x2) d1^d2 vanish at the origin and on the
    # line x1 = -x2; a point of the walk off it shows the generic rank 2
    f0, finf = PoissonTensorField(2), PoissonTensorField(2)
    s = Poly.variable(2, 0) + Poly.variable(2, 1)
    f0.set_entry(0, 1, s)
    finf.set_entry(0, 1, s * 2)
    with pytest.raises(RankDeficientPointError):
        analyze_point(f0, finf, [F(0), F(0)])


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize("blocks, warned", [
    ([KroneckerBlock(1), JordanBlock(2, 1)], True),
    ([KroneckerBlock(0), JordanBlock(-1, 2)], True),
    ([KroneckerBlock(2)], False),
])
def test_kronecker_spot_check_warning(blocks, warned, mode, monkeypatch):
    # a constant pencil with a Jordan block keeps it at every walk point
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    c = corpus.jk("pair", blocks)
    rep = analyze_point(c.field0, c.field_inf, c.point, mode=mode)
    assert any(w.startswith("a walk point has non-empty spectrum")
               for w in rep.warnings) == warned
    # the point's core, and at a singular point the exact core at the first
    # walk point, which decides the warning; the Kronecker-only point is
    # Regular and has no spot check
    assert len(cores) == (2 if warned else 1)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_non_diagonalizable_where_jk_finds_a_jordan_block_of_size_two(mode):
    # the reference is the Jordan blocks: a spectrum value is diagonalizable
    # exactly when every Jordan block at it has size 1; exact mode also meets
    # Jordan blocks of size 2 at the irrational lambda = +-sqrt(2)
    for case in corpus.jk_pairs() + ([corpus.sqrt2(2)] if mode.is_exact else []):
        p = case.pencil
        rep = analyze_point(case.field0, case.field_inf, case.point, mode=mode)
        jordan = case.expected["jordan"]
        assert {lambda_key(lam) for r in rep.per_lambda
                for lam in ((r.lam, r.lam.conjugate()) if r.paired else (r.lam,))} == set(jordan)
        for r in rep.per_lambda:
            flat = all(size == 1 for size in jordan[lambda_key(r.lam)])
            assert r.diagonalizable == flat, (p, r.lam)
            if not flat:
                assert r.degeneracy_reason == f"NonDiagonalizable({lambda_key(r.lam)})"


@pytest.mark.parametrize("congruence", [0, 1])
def test_float_mode_snaps_a_double_jordan_block_at_a_gaussian_lambda(congruence):
    # Kronecker 2 + Jordan (1+2i) of size 2, realified, under a congruence:
    # the block splits into float eigenvalues about sqrt(eps) apart, which
    # cluster, or snap to one exact lambda; clusters snapped to one lambda
    # are one eigenvalue of R, which the spectrum count check counts once
    case = corpus.jk_gaussian_congruences()[congruence]
    for mode in (EXACT, float_mode()):
        rep = analyze_point(case.field0, case.field_inf, case.point, mode=mode)
        assert rep.verdict.reason == "NonDiagonalizable((1+2i))", mode
        assert [e.lam for e in rep.spectrum.entries] == [QQi(1, 2)], mode
        assert not any("count check" in w for w in rep.warnings), mode


@pytest.mark.parametrize("lam", [F(1, 1001), F(1000, 1001)])
def test_float_mode_snaps_to_the_first_rational_the_exact_rank_accepts(lam):
    # 1/1000 and 1 lie within the clustering tolerance of lambda; the exact
    # rank rejects them, and the next denominator bound gives lambda itself
    f0, finf = corpus.constant_fields(corpus.companion_pair([-lam]))
    rep = analyze_point(f0, finf, [F(0)] * 2, mode=float_mode())
    assert [e.lam for e in rep.spectrum.entries] == [lam]


def test_a_float_origin_keeps_lambda_zero():
    # so3_shift at the origin in float mode: lambda = 0 with its kernel of
    # dimension 3
    e = catalog_by_name()["so3_shift"]
    rep = analyze_point(e.field0, e.field_inf, [0, 0, 0], float_mode())
    assert rep.verdict.kind == "NonDegenerate"
    assert [(r.lam, r.kernel_dim) for r in rep.spectrum.entries] == [(0, 3)]


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize("x", [0.0, 1.5, complex(0, 1), QQi(0, 1), QQi(1, 1, 2)],
                         ids=["zero", "float", "complex", "Q(i)", "Q(sqrt 2)"])
def test_a_point_off_q_is_refused_in_either_mode(x, mode):
    # a point must be rational: one float, complex or Q(sqrt d) coordinate
    # is refused by the evaluation, and so by the analysis in either mode
    e = catalog_by_name()["so3_shift"]
    point = [Fraction(1), x, Fraction(0)]
    with pytest.raises(NonRationalPointError):
        evaluate_pencil(e.field0, e.field_inf, point)
    with pytest.raises(NonRationalPointError):
        analyze_point(e.field0, e.field_inf, point, mode, e.declared_rank)


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
@pytest.mark.parametrize("case, reason", [
    (JK[3], "NonDiagonalizable(-2)"),
    (JK[2], "NonDiagonalizable(inf)"),
    (JK[1], "RootsDependent((1+1i))"),
    (corpus.sqrt2(1), "RootsDependent(-1.41421356237)"),
], ids=["exact-real", "inf", "gaussian", "float"])
def test_a_degeneracy_reason_names_lambda_by_its_key(case, reason, mode):
    # a non-real lambda reads as (a+bi), never as the report's {re, im} dict
    rep = analyze_point(case.field0, case.field_inf, case.point, mode=mode)
    assert rep.verdict.reason == reason


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs each call's arguments."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def reports_across_seeds(argv, calls, position, capsys):
    """The CLI report of ``argv`` at --seed 0 and at --seed 5, provenance
    aside, each with argument ``position`` of the ``calls`` logged during its
    run."""
    runs = []
    for seed in ("0", "5"):
        calls.clear()
        assert cli.main(argv + ["--seed", seed]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("provenance")["seed"] == int(seed)
        runs.append((doc, [list(args[position]) for args in calls]))
    return runs


def test_analyze_evaluates_the_same_points_at_every_seed(tmp_path, monkeypatch, capsys):
    # without a declared rank, the rank certificate and the spot check read
    # one walk of pencils: the point and 5 walk points, whatever the seed
    e = catalog_by_name()["so3_shift"]
    path = tmp_path / "so3.pencil.json"
    path.write_text(dump_canonical(pencil_to_json_dict(e.field0, e.field_inf, None)))
    evaluated = count_calls(monkeypatch, analyzer, "evaluate_pencil")
    argv = ["analyze", "--pencil", str(path), "--point", "0,0,0"]
    (doc0, points0), (doc5, points5) = reports_across_seeds(argv, evaluated, 2, capsys)
    assert len(points0) == 6
    assert points0 == points5 and doc0 == doc5
    assert doc0["report"]["warnings"][0].startswith("pencil rank certified by sampling")


def test_linear_tests_regularity_at_the_same_points_at_every_seed(tmp_path, monkeypatch,
                                                                  capsys):
    e = catalog_by_name()["so3_shift"]
    cocycle = liealg.argument_shift_cocycle(e.algebra, e.shift)
    paths = [tmp_path / "alg.json", tmp_path / "coc.json"]
    for path, doc in zip(paths, (e.algebra.to_json_dict(), cocycle.to_json_dict())):
        path.write_text(json.dumps(doc))
    shifts = count_calls(monkeypatch, liealg, "argument_shift_cocycle")
    argv = ["linear", "--algebra", str(paths[0]), "--cocycle", str(paths[1])]
    (doc0, points0), (doc5, points5) = reports_across_seeds(argv, shifts, 1, capsys)
    assert len(points0) == 2 * 3 + 3
    assert points0 == points5 and doc0 == doc5
    assert doc0["regular"] is True


def test_a_toda_random_point_computes_one_exact_core(monkeypatch):
    # a Regular point has no spot check: the only exact core is the point's
    # own
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    f0, finf = toda_pencil(4)
    rep = analyze_point(f0, finf, random_point(4, 3).coordinates(), declared_rank=6)
    assert rep.verdict.kind == "Regular" and rep.warnings == []
    assert len(cores) == 1


@pytest.mark.parametrize("make_point, kind, checks", [
    (random_point, "Regular", 0), (make_singular_point, "NonDegenerate", 1)])
def test_the_spot_check_runs_only_at_a_singular_point(monkeypatch, make_point, kind, checks):
    # a Regular point's empty spectrum at its certified rank already shows the
    # pencil Kronecker on a dense open set, which holds the walk points
    calls = count_calls(monkeypatch, analyzer, "_kronecker_spot_check")
    f0, finf = toda_pencil(4)
    rep = analyze_point(f0, finf, make_point(4, 1).coordinates(), declared_rank=6)
    assert rep.verdict.kind == kind
    assert not any(w.startswith("a walk point") for w in rep.warnings)
    assert len(calls) == checks


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_the_spot_check_stops_at_its_first_proof(monkeypatch, mode):
    # the exact core at the first walk point proves the pencil Kronecker on
    # a dense open set: no second walk pencil is evaluated, and only the
    # point's own pencil besides
    evaluated = count_calls(monkeypatch, analyzer, "evaluate_pencil")
    checks = count_calls(monkeypatch, analyzer, "_kronecker_spot_check")
    c = corpus.toda_singular(4, 1)
    rep = analyze_point(c.field0, c.field_inf, c.point, mode=mode, declared_rank=c.rank)
    assert not any(w.startswith("a walk point") for w in rep.warnings)
    assert len(checks) == 1
    assert [args[2] == c.point for args in evaluated] == [True, False]


def test_the_spot_check_reads_the_same_walk_points_at_every_point(monkeypatch):
    # Kronecker type is a fact about the pencil: two singular points of one
    # pencil check it at the same walk pencil
    evaluated = count_calls(monkeypatch, analyzer, "evaluate_pencil")
    f0, finf = toda_pencil(4)
    walked = []
    for seed in (1, 2):
        pt = make_singular_point(4, seed=seed).coordinates()
        evaluated.clear()
        rep = analyze_point(f0, finf, pt, declared_rank=6)
        assert rep.verdict.kind == "NonDegenerate"
        walked.append([args[2] for args in evaluated if args[2] != pt])
    assert walked[0] == walked[1] == [next(point_walk(8))]


@pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
def test_the_spot_check_skips_a_walk_pencil_below_the_rank(monkeypatch, mode):
    # so3_shift's generators times x1 - 1 stay Poisson and compatible in
    # dimension 3 and vanish at the first walk point [1, 2, 1/2]: its core
    # is refused and skipped, and the second walk point's core decides
    e = catalog_by_name()["so3_shift"]
    fields = [PoissonTensorField(3) for _ in range(2)]
    for g, f in zip(fields, (e.field0, e.field_inf)):
        for (i, j), poly in f.upper_entries().items():
            g.set_entry(i, j, poly * (Poly.variable(3, 0) - 1))
    evaluated = count_calls(monkeypatch, analyzer, "evaluate_pencil")
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    rep = analyze_point(*fields, [F(0)] * 3, mode=mode, declared_rank=2)
    assert rep.verdict.kind == "NonDegenerate" and rep.warnings == []
    walk = list(islice(point_walk(3), 2))
    assert walk[0] == [1, 2, F(1, 2)]
    assert [args[2] for args in evaluated[1:]] == walk
    assert [(args[0].point, args[1]) for args in cores[1:]] == [(x, EXACT) for x in walk]


def test_a_float_singular_point_computes_only_its_own_core(monkeypatch):
    # the walk points are rational, so the spot check takes the exact core at
    # the first walk point in float mode too: the point's own float core is
    # the only float one
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    e = catalog_by_name()["so3_shift"]
    rep = analyze_point(e.field0, e.field_inf, e.point,
                        mode=float_mode(), declared_rank=e.declared_rank)
    assert rep.verdict.kind == "NonDegenerate" and rep.warnings == []
    assert [args[1].is_exact for args in cores] == [False, True]
    assert cores[1][0].point == next(point_walk(3))


@pytest.mark.parametrize("make_point, kind, calls", [
    (random_point, "Regular", 0), (make_singular_point, "NonDegenerate", 2)])
def test_derivatives_are_evaluated_only_where_linearized(monkeypatch, make_point, kind,
                                                          calls):
    # the walk points of the rank samples and the spot check and a Regular
    # point read no derivatives; a singular point evaluates each generator's
    # once, at the point itself
    points = []
    real = PoissonTensorField.derivatives_at

    def derivatives_at(self, point):
        points.append(list(point))
        return real(self, point)

    monkeypatch.setattr(PoissonTensorField, "derivatives_at", derivatives_at)
    f0, finf = toda_pencil(4)
    pt = make_point(4, 1).coordinates()
    rep = analyze_point(f0, finf, pt)
    assert rep.verdict.kind == kind
    assert points == [pt] * calls


def test_a_bad_prime_changes_no_report(monkeypatch):
    # the spot check takes one exact core, at the first walk pencil, in each
    # singular analysis and none in a Regular one, and no report depends on
    # a prime: the golden catalog reports are unchanged
    f0, finf = toda_pencil(4)
    points = ([make_singular_point(4, seed=s).coordinates() for s in (1, 2)]
              + [random_point(4, s).coordinates() for s in (1, 2)])
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    kinds, walk_cores = [], []
    for pt in points:
        for rank in (6, None):
            cores.clear()
            kinds.append(analyze_point(f0, finf, pt, declared_rank=rank).verdict.kind)
            # exact cores at a walk pencil: any pencil but the point's
            walk_cores.append(sum(args[0].point != pt for args in cores))
    assert kinds == ["NonDegenerate"] * 4 + ["Regular"] * 4
    assert walk_cores == [1] * 4 + [0] * 4
    for entry in catalog():
        with open(os.path.join(fixture_dir(), f"{entry.name}.report.json")) as fh:
            assert report_text(entry) == fh.read(), entry.name


def test_analysis_computes_each_kernel_once(monkeypatch):
    # the diagonalizability test and the linearization share one kernel per
    # spectrum value, and the core takes its kernels from regular_parameters
    kernels, ranks = [], []
    real_kernel, real_rank = pencil.kernel_basis, pencil.rank_at

    def kernel_basis(p, lam, mode=EXACT):
        kernels.append((p.point, lam))
        return real_kernel(p, lam, mode)

    def rank_at(*args, **kwargs):
        ranks.append(args[1])
        return real_rank(*args, **kwargs)

    for module in (analyzer, linearization, pencil):
        if getattr(module, "kernel_basis", None) is real_kernel:
            monkeypatch.setattr(module, "kernel_basis", kernel_basis)
    monkeypatch.setattr(pencil, "rank_at", rank_at)

    blocks = [KroneckerBlock(0), JordanBlock(F(1, 3), 1), JordanBlock(INF, 1),
              JordanBlock(F(2), 2)]
    c = corpus.jk("pair", blocks)
    rep = analyze_point(c.field0, c.field_inf, c.point, declared_rank=8)
    values = [e.lam for e in rep.spectrum.entries]
    assert [r.diagonalizable for r in rep.per_lambda] == [True, False, True]
    assert [lam for at, lam in kernels if at == c.point and lam in values] == values

    p = evaluate_pencil(c.field0, c.field_inf, c.point)
    ranks.clear()
    core = compute_core(p, rank=8)
    assert ranks == [] and core.dim == 1


@pytest.mark.parametrize("case, dims, params", [
    ("toda6", [2, 3, 4, 5, 6, 7], [1, -1, 2, -2, F(1, 2), F(-1, 2)]),
    ("sl5", [4, 8, 11, 13, 14], [1, -1, 2, -2, F(1, 2)])])
def test_the_spot_check_core_walks_its_kernels_as_recorded(monkeypatch, case, dims, params):
    # the Kronecker spot check's core at the first walk point: its dimension
    # after each kernel and its parameters, the values one elimination of the
    # whole union gave, which the span's greedy choice keeps
    cores = count_calls(monkeypatch, analyzer, "compute_core")
    c = corpus.toda_singular(6, 1) if case == "toda6" else corpus.sl(5, 0)
    rep = analyze_point(c.field0, c.field_inf, c.point, declared_rank=c.rank)
    assert rep.verdict.kind == "NonDegenerate" and len(cores) == 2
    q, mode = cores[1]
    core = compute_core(q, mode, rank=c.rank)
    assert core.dim_sequence == dims and core.regular_params == params


@pytest.mark.parametrize("kind", ["regular", "singular", "gaussian"])
def test_analysis_eliminates_each_pencil_matrix_once(monkeypatch, kind):
    # the rank samples, the core walk, the spectrum's checks and the
    # per-lambda kernels read one exact elimination per point and lambda:
    # every elimination over Z or Z[sqrt d] is matched to the latest integer
    # form P_lambda(x) built so far with the rows it starts from, the int
    # rows made primitive, the Z[sqrt d] pairs as they are built (the point
    # near a constant pencil has the same matrices)
    built, seen, counts = [], {}, {}
    real_matrix, real_bareiss = PencilAtPoint.integer_matrix_at, exactlin._bareiss

    def integer_matrix_at(self, lam):
        M = real_matrix(self, lam)
        if M is not None:
            built.append((self, lam, M))
        return M

    def bareiss(K, A, *args, **kwargs):
        for p, lam, M in reversed(built):
            pairs = isinstance(M[0][0], tuple)
            if pairs != isinstance(K, exactlin._ZD):
                continue
            rows = seen.setdefault(id(M), [list(r) if pairs else K.clear(r) for r in M])
            if rows == A:
                key = id(p), lambda_key(lam)
                counts[key] = counts.get(key, 0) + 1
                break
        return real_bareiss(K, A, *args, **kwargs)

    monkeypatch.setattr(PencilAtPoint, "integer_matrix_at", integer_matrix_at)
    monkeypatch.setattr(exactlin, "_bareiss", bareiss)
    n = 6
    # at JK[1] the spectrum value 1 + i and its conjugate are eliminated over Z[i]
    c = {"gaussian": JK[1], "regular": corpus.toda_random(n, 1),
         "singular": corpus.toda_singular(n, 1)}[kind]
    rank = c.pencil.dim - 1 if kind == "gaussian" else c.rank
    rep = analyze_point(c.field0, c.field_inf, c.point, declared_rank=rank)
    assert (rep.verdict.kind == "Regular") == (kind == "regular")
    if kind == "gaussian":
        assert {"(1+1i)", "(1-1i)"} <= {key for _, key in counts}
    assert len(counts) > n and max(counts.values()) == 1, counts


def test_the_linear_layer_computes_each_fact_once(monkeypatch):
    # at Toda singular points the kernel brackets are read off the echelon
    # kernel basis with no elimination, the ad matrices of Ker A are built
    # once per spectrum value, and the cocycle's rank is dim - dim Ker A: the
    # form's rank is read off its one elimination (see the next test), never
    # by a separate exact rank.  Inside analyze_linear the ad matrices are restricted
    # to root spaces read off echelon bases too, and the derived algebra's
    # basis reads its pivots off a forward elimination: no reduced form at all.
    # Each ad matrix is counted where its scalars are made from its carrier rows
    rrefs = count_calls(monkeypatch, exactlin, "rref")
    ranks = count_calls(monkeypatch, exactlin, "mat_rank_exact")
    ads = count_calls(monkeypatch, liealg, "scalar_matrix")
    windows = []

    def watched(name):
        real = getattr(analyzer, name)

        def wrapper(*args, **kwargs):
            before = len(rrefs), len(ranks), len(ads)
            out = real(*args, **kwargs)
            windows.append((name, args[0], out, before, (len(rrefs), len(ranks), len(ads))))
            return out

        monkeypatch.setattr(analyzer, name, wrapper)

    watched("linearize")
    watched("analyze_linear")
    for n in (4, 6, 8):
        windows.clear()
        first_rank = len(ranks)
        c = corpus.toda_singular(n, 1)
        rep = analyze_point(c.field0, c.field_inf, c.point, declared_rank=c.rank)
        assert rep.verdict.kind == "NonDegenerate" and rep.per_lambda
        linearized = [w for w in windows if w[0] == "linearize"]
        analyzed = [w for w in windows if w[0] == "analyze_linear"]
        assert len(linearized) == len(analyzed) == len(rep.per_lambda)
        for _, _, lp, (r0, _, _), (r1, _, _) in linearized:
            assert lp.algebra.dim >= 3 and r1 - r0 == 0
        for _, lp, lin, (_, k0, a0), (_, k1, a1) in analyzed:
            assert a1 - a0 == len(lin.data.kernel_basis) >= 1
            assert 2 * len(lin.data.pairs) == lp.algebra.dim - len(lin.data.kernel_basis)
            assert not any(M is lp.cocycle.matrix for (M,) in ranks[k0:k1])
        assert sum(r1 - r0 for _, _, _, (r0, _, _), (r1, _, _) in analyzed) == 0, n
        forms = [lp.cocycle.matrix for _, lp, *_ in analyzed]
        assert not any(M is form for form in forms for (M,) in ranks[first_rank:])


@pytest.mark.parametrize("case", ["so3_shift", "diamond_C_shift", "toda4", "toda8", "jk-gaussian"])
def test_the_kernel_form_is_eliminated_once(monkeypatch, case):
    # the diagonalizability test reads the form's rank, and the linear layer
    # Ker A, off one exact elimination of the form: every form of one
    # analyze_point call, NonDiagonalizable ones included, is eliminated
    # once, and no other exact rank or kernel takes it
    eliminated, forms = [], []
    real_eliminate, real_diagonalizable = exactlin.eliminate, analyzer.is_diagonalizable

    def eliminate(M, *rest):
        eliminated.append(M)
        return real_eliminate(M, *rest)

    def is_diagonalizable(form, *rest):
        forms.append(form.matrix)
        return real_diagonalizable(form, *rest)

    monkeypatch.setattr(exactlin, "eliminate", eliminate)
    monkeypatch.setattr(liealg, "eliminate", eliminate)
    monkeypatch.setattr(analyzer, "is_diagonalizable", is_diagonalizable)
    if case.startswith("toda"):
        c = corpus.toda_singular(int(case[4:]), 1)
    elif case == "jk-gaussian":
        c = corpus.jk(case, [KroneckerBlock(0), JordanBlock(QQi(1, 2), 2), JordanBlock(F(1, 3), 1)])
    else:
        c = next(c for c in corpus.catalog() if c.name == case)
    rep = analyze_point(c.field0, c.field_inf, c.point, declared_rank=c.rank)
    assert len(forms) == len(rep.per_lambda) >= 1
    assert [sum(M is form for M in eliminated) for form in forms] == [1] * len(forms)


def test_one_nondegeneracy_check_and_one_classification_per_lambda(monkeypatch):
    # every spectrum value goes through roots.analyze_linear once
    calls = []
    for name in ("is_nondegenerate_linear", "classify"):
        real = getattr(roots, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in (analyzer, roots):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    c = catalog_by_name()
    a, b = c["so3_shift"], c["sl2_shift_pos"]
    f0, finf = direct_sum(a.field0, a.field_inf, b.field0, b.field_inf)
    # so3 at x3 = -2 is singular at lambda = 2, sl2 at the origin at lambda = 0
    rep = analyze_point(f0, finf, [F(0), F(0), F(-2)] + b.point, declared_rank=4)
    assert [r.linear_nondegenerate for r in rep.per_lambda] == [True, True]
    assert calls.count("is_nondegenerate_linear") == 2
    assert calls.count("classify") == 2


NO_FLOAT_CASES = ([pytest.param(c, id=f"catalog-{c.name}") for c in corpus.catalog()]
                  + [pytest.param(corpus.toda_singular(n, 1), id=f"toda-{n}") for n in (4, 6, 8)]
                  + [pytest.param(corpus.sl(n, 0), id=f"sl-{n}") for n in (3, 4, 5)]
                  + [pytest.param(c, id=f"jk-{k}") for k, c in enumerate(corpus.jk_pairs())])


@pytest.mark.parametrize("case", NO_FLOAT_CASES)
def test_exact_mode_holds_no_float_by_construction(case, monkeypatch):
    """Exact analysis of every catalog entry, of singular Toda points, of the
    rank-0 sl(n) points and exact ``jk`` on the JK pairs decide with no float:
    numpy's roots and linear algebra fail, and so does every conversion of a
    matrix to floats.  Each answer is the expected one."""
    want = case.expected
    forbid_floats(monkeypatch)
    if case.pair is not None:
        inv = jk_invariants(case.pair)
        assert inv.to_json_dict() == want and inv.total_dimension() == case.pair.dim
        return
    rep = analyze_point(case.field0, case.field_inf, case.point, EXACT, declared_rank=case.rank)
    t = rep.total_type
    assert (rep.verdict.kind, t and (t.ke, t.kh, t.kf)) == (want.verdict, want.type)


def test_count_identity_on_reports():
    for name in ("so3_shift", "so4_shift", "diamond_shift", "so22_shift_saddle_center"):
        e = catalog_by_name()[name]
        rep = analyze_point(e.field0, e.field_inf, e.point, declared_rank=e.declared_rank)
        t = rep.total_type
        assert t.ke + t.kh + 2 * t.kf == rep.pencil_rank // 2 - rep.point_rank


def test_type_additivity_direct_sum():
    c = catalog_by_name()
    a, b = c["so3_shift"], c["sl2_shift_pos"]
    f0, finf = direct_sum(a.field0, a.field_inf, b.field0, b.field_inf)
    rep = analyze_point(f0, finf, a.point + b.point, declared_rank=4)
    assert rep.verdict.kind == "NonDegenerate"
    assert astuple(rep.total_type) == (1, 1, 0)


def test_report_json_shape():
    e = catalog_by_name()["diamond_shift"]
    rep = analyze_point(e.field0, e.field_inf, e.point, declared_rank=2)
    doc = rep.to_json_dict()
    assert doc["verdict"]["kind"] == "NonDegenerate"
    assert doc["spectrum"] == [{"lambda": "0", "kernel_dim": 4, "conjugate_pair": False}]
    assert doc["per_lambda"][0]["type"] == {"ke": 1, "kh": 0, "kf": 0}
    assert doc["total_type"] == {"ke": 1, "kh": 0, "kf": 0}


# ---------------------------------------------------------------------------
# Casimir variation operators
# ---------------------------------------------------------------------------

def symbolic_variation_oracle(field0, field_inf, lam, f_poly, point, xi):
    """Independent oracle: differentiate {f, g} symbolically for linear g."""
    d = field0.dim
    bracket_fn = Poly.zero(d)
    for i in range(d):
        for j in range(d):
            entry = field0.entry(i, j) + field_inf.entry(i, j) * lam
            if not entry.is_zero():
                bracket_fn = bracket_fn + entry * diff(f_poly, i) * F(xi[j])
    return [diff(bracket_fn, k).eval(point) for k in range(d)]


def test_variation_matches_symbolic_oracle_and_vanishes_on_kernel():
    e, _ = so3_pencil_at([F(1), F(2), F(3)])
    q = e.casimirs[0]
    point = [F(1), F(2), F(3)]
    p = evaluate_pencil(e.field0, e.field_inf, point)
    D = casimir_variation(p, q, F(0))
    # entry-by-entry agreement with the symbolic derivative of {f, g}
    for j in range(3):
        xi = [F(1) if t == j else F(0) for t in range(3)]
        oracle = symbolic_variation_oracle(e.field0, e.field_inf, F(0), q, point, xi)
        got = mat_vec(D.matrix, xi)
        assert got == oracle
    # vanishes on the kernel of the regular bracket (full-rank orbit point)
    ker = nullspace(p.matrix_at(F(0)))
    assert len(ker) == 1
    assert all(v == 0 for v in mat_vec(D.matrix, ker[0]))


def test_variation_hessian_identity_at_critical_point():
    # with df(x) = 0 the operator is the Hessian composed with the tensor
    e, p = so3_pencil_at([F(0), F(1), F(2)])
    f = Poly.monomial(3, (2, 0, 0))          # x^2, critical on the x = 0 plane
    D = casimir_variation(p, f, F(0))
    A = p.matrix_at(F(0))
    hess = function_data(f, p.point).hessian
    for j in range(3):
        xi = [F(1) if t == j else F(0) for t in range(3)]
        pxi = mat_vec(A, xi)
        expected = [sum(hess[i][k] * pxi[i] for i in range(3)) for k in range(3)]
        assert mat_vec(D.matrix, xi) == expected


def test_variation_precondition():
    _, p = so3_pencil_at([F(1), F(2), F(3)])
    bad = Poly.variable(3, 0)                # dx is not in Ker P_0 here
    with pytest.raises(PreconditionError):
        casimir_variation(p, bad, F(0))


def toda2_families():
    """Exact polynomial Casimir families of the n = 2 lattice pencil.

    The block determinants of the doubled Lax matrix are Casimirs of the
    quadratic generator; composing with b -> b + alpha gives Casimirs of the
    alpha-slice.
    """
    d = 4
    a1, a2 = Poly.variable(d, 0), Poly.variable(d, 1)
    b1, b2 = Poly.variable(d, 2), Poly.variable(d, 3)
    det_per = b1 * b2 - (a1 + a2) * (a1 + a2)
    det_anti = b1 * b2 - (a1 - a2) * (a1 - a2)

    def family(q):
        def f(alpha):
            return shift(q, [F(0), F(0), alpha, alpha])
        return f

    return family(det_per), family(det_anti)


def test_variation_restricted_to_kernel_is_ad():
    # at a singular lattice point the operator of a Casimir combination acts
    # on the kernel algebra as the bracket with an explicit kernel element
    pt = constant_lattice(2)
    point = pt.coordinates()
    p0, pinf = toda_pencil(2)
    p = evaluate_pencil(p0, pinf, point)
    lam = F(0)
    lp = linearize_at(p, lam)
    ker = nullspace(p.matrix_at(lam))

    per, anti = toda2_families()
    alphas = [F(1), F(3)]
    beta = F(2)
    coeffs = [F(1), F(-1, 2)]
    terms = [function_data(anti(al), point, f"anti-block determinant at {al}")
             for al in alphas]
    f = combine_function_data(terms, coeffs)
    D = casimir_variation(p, f, beta)

    # xi = sum c_i (beta - alpha_i) / (lam - alpha_i) * df_i, in kernel coordinates
    xi_ambient = [F(0)] * 4
    for al, c, t in zip(alphas, coeffs, terms):
        w = c * (beta - al) / (lam - al)
        xi_ambient = [x + w * g for x, g in zip(xi_ambient, t.gradient)]
    from bipencil.exactlin import coords_in_span
    xi_coords = coords_in_span(ker, [xi_ambient])
    assert xi_coords is not None
    ad = lp.algebra.ad_matrix(xi_coords[0])
    D_on_kernel = D.restrict_to(ker)
    assert D_on_kernel == ad


def test_reparameterize_coefficients():
    assert reparameterize_casimir_combination([F(1), F(2)], F(0), F(0)) == [1, 1]
    got = reparameterize_casimir_combination([F(1), F(2)], F(0), F(5))
    assert got == [F(-1, 4), F(-2, 3)]
    # projective limit at beta = infinity: coefficients (alpha - alpha_i)
    got_inf = reparameterize_casimir_combination([F(1), F(2)], F(0), INF)
    assert got_inf == [F(-1), F(-2)]
    with pytest.raises(PreconditionError):
        reparameterize_casimir_combination([F(1)], F(0), F(1))


def test_reparameterize_operator_equality():
    # D_f P_alpha = D_g P_beta as exact matrices, including beta at infinity
    pt = constant_lattice(2)
    point = pt.coordinates()
    p0, pinf = toda_pencil(2)
    p = evaluate_pencil(p0, pinf, point)
    per, anti = toda2_families()
    alphas = [F(1), F(-2)]
    alpha = F(3)

    terms = [function_data(anti(al), point, f"f_{al}") for al in alphas]
    f = combine_function_data(terms, [F(1), F(1)])
    D_f = casimir_variation(p, f, alpha)
    for beta in (F(5), F(-1, 3), INF):
        coeffs = reparameterize_casimir_combination(alphas, alpha, beta)
        g = combine_function_data(terms, coeffs)
        # claim 1: dg(x) lies in the kernel of the target bracket
        assert all(v == 0 for v in mat_vec(p.matrix_at(beta), g.gradient))
        # claim 2: exact operator equality
        D_g = casimir_variation(p, g, beta)
        assert D_f.matrix == D_g.matrix


def test_variation_skew_and_commutes_with_recursion():
    pt = constant_lattice(2)
    point = pt.coordinates()
    p0, pinf = toda_pencil(2)
    p = evaluate_pencil(p0, pinf, point)
    per, anti = toda2_families()
    f = function_data(anti(F(2)), point)
    beta = F(2)
    D = casimir_variation(p, f, beta)
    # skew-symmetry with respect to two distinct brackets of the pencil
    for lam in (beta, F(7)):
        A = p.matrix_at(lam)
        lhs = mat_mul([list(r) for r in zip(*D.matrix)], A)   # D^T A
        rhs = mat_mul(A, D.matrix)
        assert all(a + b == 0 for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))
    # commutation with a recursion operator on the quotient
    core = core_of(p)
    qb = quotient_basis(p, core)
    R = recursion_operator(p, qb, F(0), INF).matrix
    Dq = quotient_operator(D.matrix, qb, core.basis)
    assert mat_mul(Dq, R) == mat_mul(R, Dq)
