"""The kernel algebra on carrier ints: the joint eigen-split, the ad operators
and the structure constants against the split on Fraction / QQi entries."""

from fractions import Fraction

import pytest

from bipencil import algebras, exactlin, roots
from bipencil.exactlin import mat_rank
from bipencil.liealg import (CocycleKernel, LieAlgebra, LinearPencil, TwoCocycle,
                             argument_shift_cocycle, kernel_of_cocycle)
from bipencil.linearization import kernel_form, linearize
from bipencil.pencil import is_diagonalizable, kernel_basis
from bipencil.roots import analyze_linear, joint_eigenvectors
from bipencil.scalars import QQi, is_exact_scalar

from oracles import corpus, eigensplit
from pipeline import spectrum_of

F = Fraction


def linear_pencils(p):
    """The exact linear pencil at each diagonalizable spectrum value of p."""
    spectrum = spectrum_of(p)
    for entry in spectrum.entries:
        ker = kernel_basis(p, entry.lam)
        form = kernel_form(p, entry.lam, ker)
        if is_diagonalizable(form, spectrum.corank):
            yield entry.lam, linearize(p, entry.lam, ker, form)


@pytest.fixture(scope="module")
def differential():
    """(name, lambda, linear pencil): every catalog entry, the singular Toda
    points n = 4, 6, 8 at seeds 1, 2, and the rank-0 sl(n) points n = 3..5."""
    points = (corpus.catalog() + corpus.toda((4, 6, 8), seeds=(1, 2), regular=False)
              + [corpus.sl(n, 0) for n in (3, 4, 5)])
    return [(c.name, lam, lp) for c in points for lam, lp in linear_pencils(c.pencil)]


def oracle_split(mats, mode, rows=None):
    # ``rows`` are the carrier rows of ``mats``; the oracle splits ``mats``
    return eigensplit.joint_eigenvectors(mats)


def test_the_integer_split_is_the_fraction_split(differential, monkeypatch):
    # each joint eigenvalue tuple is the Fraction split's, in its order, each
    # joint eigenspace spans the Fraction split's, and the linear analysis
    # reads the same roots, reason and blocks off either split
    names = {name for name, *_ in differential}
    assert names >= {c.name for c in corpus.catalog()} | {"sl3-0", "sl4-0", "sl5-0"}
    fields = set()
    for name, lam, lp in differential:
        kernel = kernel_of_cocycle(lp)
        if kernel.abelian and kernel.ad:
            got, want = joint_eigenvectors(kernel.ad), eigensplit.joint_eigenvectors(kernel.ad)
            assert (got is None) == (want is None), (name, lam)
            for (eigs, vecs), (oeigs, ovecs) in zip(got or [], want or []):
                assert eigs == oeigs, (name, lam)
                assert all(is_exact_scalar(x) for v in vecs for x in v)
                assert mat_rank(vecs) == mat_rank(vecs + ovecs) == len(ovecs), (name, lam)
                fields |= {getattr(x, "d", 0) for x in eigs}
        lin = analyze_linear(lp)
        with monkeypatch.context() as m:
            m.setattr(roots, "joint_eigenvectors", oracle_split)
            oracle = analyze_linear(lp)
        assert [p.root for p in lin.data.pairs] == [p.root for p in oracle.data.pairs]
        assert lin.reason == oracle.reason, (name, lam)
        assert (lin.blocks and lin.blocks.to_json_dict()) == \
            (oracle.blocks and oracle.blocks.to_json_dict()), (name, lam)
    # rational, Gaussian and Q(sqrt -N) roots all took part
    assert {0, -1} < fields and min(fields) < -10 ** 6


def test_a_nilpotent_direction_is_not_semisimple():
    # the diamond's kernel at the shift by e holds e, whose ad is nilpotent
    D = algebras.diamond()
    lp = LinearPencil(D, argument_shift_cocycle(D, [F(1), F(0), F(0), F(0)]))
    assert joint_eigenvectors(kernel_of_cocycle(lp).ad) is None
    assert analyze_linear(lp).reason == "AdNotSemisimple"


def test_a_singular_toda_kernel_splits_over_q_sqrt_minus_n():
    # Toda n = 8 at seed 1: the roots lie in Q(sqrt -N) with N of about 10^12;
    # the split reads them off the characteristic polynomial of the integer
    # restriction, exactly, and each root vector is an eigenvector of every
    # ad operator with its root as eigenvalue
    (lam, lp), = linear_pencils(corpus.toda_singular(8, 1).pencil)
    kernel = kernel_of_cocycle(lp)
    items = joint_eigenvectors(kernel.ad)
    ds = {x.d for eigs, _ in items for x in eigs if isinstance(x, QQi)}
    assert len(ds) == 1 and -10 ** 14 < ds.pop() < -10 ** 10
    assert [e for e, _ in items] == [e for e, _ in eigensplit.joint_eigenvectors(kernel.ad)]
    for eigs, vecs in items:
        for M, val in zip(kernel.ad, eigs):
            for v in vecs:
                assert all(sum(a * x for a, x in zip(row, v)) == val * y for row, y in zip(M, v))
    assert analyze_linear(lp).reason is None


def gaussian_linear_pencils():
    """(name, lambda, linear pencil) at the complex lambda of two points: the
    real JK pair with a Jordan block at 1 + i, a constant pencil, whose kernel
    algebra is abelian, and the rank-0 sl(3) point with one rotation block,
    whose kernel algebra is not."""
    return [(c.name, lam, lp) for c in (corpus.jk_pairs()[1], corpus.sl(3, 1))
            for lam, lp in linear_pencils(c.pencil) if isinstance(lam, QQi)]


def test_a_gaussian_lambda_splits_on_gaussian_integer_rows(monkeypatch):
    # at a lambda in Q(i) the kernel algebra is complex, split to the Fraction
    # split's eigenvalues.  The JK pair, a constant pencil, has no bracket;
    # the sl(3) point has, and its form is eliminated, and its ad operators
    # split, on Z[sqrt -1] pairs
    carriers = []
    real = exactlin.Elimination.__init__

    def spy(self, rows, K):
        carriers.append(getattr(K, "d", 0))
        real(self, rows, K)

    cases = gaussian_linear_pencils()
    assert {name for name, *_ in cases} == {"jk1", "sl3-1"}
    for name, lam, lp in cases:
        assert lp.algebra.field == "complex"
        with monkeypatch.context() as m:
            m.setattr(exactlin.Elimination, "__init__", spy)
            carriers.clear()
            kernel = kernel_of_cocycle(lp)
            items = joint_eigenvectors(kernel.ad)
        want = eigensplit.joint_eigenvectors(kernel.ad)
        assert [eigs for eigs, _ in items] == [eigs for eigs, _ in want], name
        for (_, vecs), (_, ovecs) in zip(items, want):
            assert mat_rank(vecs) == mat_rank(vecs + ovecs) == len(ovecs), name
        if name == "sl3-1":
            assert any(isinstance(x, QQi) for M in kernel.ad for row in M for x in row)
            assert set(carriers) == {-1}
            assert analyze_linear(lp).reason is None
        else:
            g = lp.algebra
            assert all(v == 0 for i in range(g.dim) for j in range(g.dim)
                       for v in g.structure_vector(i, j))


def test_a_rational_ad_of_a_gaussian_algebra_splits_in_its_own_field():
    # so(3) with [e3, e1] = 2 e2, [e3, e2] = -e1, [e1, e2] = 2 e3, beside
    # [e4, e5] = i e4: Ker A = span{e3}, whose ad is rational with the roots
    # +-sqrt(-2), so its rows are held over Z, as clear_matrix would hold its
    # entries, and not over the table's Z[i], which cannot hold sqrt(-2)
    g = LieAlgebra(5, "complex")
    g.set_bracket(2, 0, [F(0), F(2), F(0), F(0), F(0)])
    g.set_bracket(2, 1, [F(-1), F(0), F(0), F(0), F(0)])
    g.set_bracket(0, 1, [F(0), F(0), F(2), F(0), F(0)])
    g.set_bracket(3, 4, [F(0), F(0), F(0), QQi(0, 1), F(0)])
    A = [[F(0)] * 5 for _ in range(5)]
    A[0][1], A[1][0], A[3][4], A[4][3] = F(1), F(-1), F(1), F(-1)
    lp = LinearPencil(g, TwoCocycle(A))
    kernel = kernel_of_cocycle(lp)
    (K, _, _), = kernel.ad_rows
    assert K is exactlin.carrier(0)
    lin = analyze_linear(lp)
    assert [p.root for p in lin.data.pairs] == [(QQi(0, 1, -2),)]
    assert [e for e, _ in joint_eigenvectors(kernel.ad)] == \
        [e for e, _ in eigensplit.joint_eigenvectors(kernel.ad)]


def test_the_scalar_views_stay_exact(differential):
    # structure constants, Ker A's basis and the ad matrices reach callers as
    # Fraction / QQi values, whatever the integer form inside
    for name, lam, lp in differential[::3]:
        g = lp.algebra
        for i in range(g.dim):
            for j in range(g.dim):
                assert all(type(x) in (Fraction, QQi) for x in g.structure_vector(i, j))
        kernel = kernel_of_cocycle(lp)
        assert isinstance(kernel, CocycleKernel)
        assert all(type(x) in (Fraction, QQi) for v in kernel.basis for x in v)
        assert all(type(x) in (Fraction, QQi) for M in kernel.ad for row in M for x in row)
        # Ker A keeps its pivot-normalized echelon basis
        assert kernel.basis == exactlin.nullspace(lp.cocycle.matrix)
        for x in kernel.basis:
            assert g.ad_matrix(x) == ad_from_structure_vectors(g, x)


def ad_from_structure_vectors(g, x):
    """ad_x with entry (k, j) = sum_i x_i c_ij^k, on Fraction / QQi values."""
    return [[sum((x[i] * g.structure_vector(i, j)[k] for i in range(g.dim)), F(0))
             for j in range(g.dim)] for k in range(g.dim)]
