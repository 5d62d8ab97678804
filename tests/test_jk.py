from fractions import Fraction

import pytest

from bipencil import jk, pencil
from bipencil.exactlin import mat_rank_exact
from bipencil.jk import (JordanBlock, KroneckerBlock, assemble_jk_canonical_pair,
                         congruent_pair, jk_invariants)
from bipencil.scalars import INF, QQi, lambda_key

from oracles import corpus
from oracles.sampling import SamplingPolicy
from oracles.toda import constant_lattice, toda_pencil_at


def integer_matrix(sampler, n: int, lo: int = -3, hi: int = 3) -> list:
    """Random invertible integer matrix (exact rank check)."""
    while True:
        m = [[Fraction(sampler.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if mat_rank_exact(m) == n:
            return m


def test_assemble_kronecker_matrices():
    p = assemble_jk_canonical_pair([KroneckerBlock(1)])
    F = Fraction
    assert p.A0 == [[F(0), F(1), F(0)], [F(-1), F(0), F(0)], [F(0), F(0), F(0)]]
    assert p.Ainf == [[F(0), F(0), F(1)], [F(0), F(0), F(0)], [F(-1), F(0), F(0)]]


def test_assemble_jordan_matrices():
    p = assemble_jk_canonical_pair([JordanBlock(Fraction(2), 1)])
    F = Fraction
    assert p.A0 == [[F(0), F(2)], [F(-2), F(0)]]
    assert p.Ainf == [[F(0), F(-1)], [F(1), F(0)]]


def test_assemble_jordan_infinity():
    p = assemble_jk_canonical_pair([JordanBlock(INF, 1)])
    F = Fraction
    assert p.A0 == [[F(0), F(-1)], [F(1), F(0)]]
    assert p.Ainf == [[F(0), F(0)], [F(0), F(0)]]


def test_invariants_pure_kronecker():
    p = assemble_jk_canonical_pair([KroneckerBlock(1)])
    inv = jk_invariants(p)
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {}}


def test_invariants_kronecker_plus_symplectic_block():
    # 2x2 pair (A0 = 0, Ainf symplectic) is a single size-1 Jordan block at zero
    p = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(0), 1)])
    inv = jk_invariants(p)
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {"0": [1]}}


def test_invariants_mixed_sizes_and_infinity():
    blocks = [KroneckerBlock(2), KroneckerBlock(0), JordanBlock(Fraction(3), 2),
              JordanBlock(Fraction(3), 1), JordanBlock(INF, 1)]
    p = assemble_jk_canonical_pair(blocks)
    inv = jk_invariants(p)
    assert inv.to_json_dict() == {
        "corank": 2, "kronecker": [0, 2], "jordan": {"3": [1, 2], "inf": [1]}}
    assert inv.total_dimension() == p.dim


def test_invariants_complex_conjugate_blocks():
    blocks = [KroneckerBlock(1), JordanBlock(QQi(0, 1), 1), JordanBlock(QQi(0, -1), 1)]
    p = assemble_jk_canonical_pair(blocks)
    inv = jk_invariants(p)
    assert inv.kronecker_indices == [1]
    assert inv.jordan == {"(0+1i)": [1], "(0-1i)": [1]}


def test_congruence_invariance():
    sp = SamplingPolicy(17)
    blocks = [KroneckerBlock(1), JordanBlock(Fraction(-1, 2), 2), JordanBlock(INF, 1)]
    p = assemble_jk_canonical_pair(blocks)
    base = jk_invariants(p).to_json_dict()
    for k in range(3):
        U = integer_matrix(sp.spawn(100 + k), p.dim)
        got = jk_invariants(congruent_pair(p, U)).to_json_dict()
        assert got == base


@pytest.mark.parametrize("blocks", [
    [KroneckerBlock(0), KroneckerBlock(3)],
    [KroneckerBlock(3), KroneckerBlock(3), JordanBlock(INF, 2)],
    [KroneckerBlock(1), KroneckerBlock(2), KroneckerBlock(3), JordanBlock(Fraction(1, 2), 1)],
    [KroneckerBlock(0), KroneckerBlock(1), KroneckerBlock(2), KroneckerBlock(3),
     JordanBlock(Fraction(-3), 2), JordanBlock(QQi(0, 1), 1)],
])
def test_invariants_with_kronecker_half_sizes_up_to_three(blocks):
    # the core stops at its first idle kernel or at dim L's bound, and the
    # half-sizes are read off the dimensions it grew through
    p = assemble_jk_canonical_pair(blocks)
    inv = jk_invariants(p)
    assert inv.kronecker_indices == sorted(b.half_size for b in blocks
                                           if isinstance(b, KroneckerBlock))
    jordan = {}
    for b in blocks:
        if isinstance(b, JordanBlock):
            jordan.setdefault(lambda_key(b.lam), []).append(b.size)
    assert inv.jordan == jordan


def test_toda_singular_point_invariants():
    p = toda_pencil_at(constant_lattice(2))
    inv = jk_invariants(p)
    assert inv.to_json_dict() == {"corank": 2, "kronecker": [0, 0], "jordan": {"0": [1]}}


def count_calls(monkeypatch, name):
    """Count calls of pencil.<name>, wherever the package looks the name up."""
    calls = []
    real = getattr(pencil, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (pencil, jk):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_invariants_build_quotient_and_recursion_once(monkeypatch):
    # the Jordan sizes come from the recursion operator the spectrum was
    # computed from, not from a second one
    qbasis = count_calls(monkeypatch, "quotient_basis")
    recursion = count_calls(monkeypatch, "recursion_operator")
    p = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(-1, 2), 2)])
    inv = jk_invariants(p)
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {"-1/2": [2]}}
    assert len(qbasis) == 1 and len(recursion) == 1


def test_complex_jordan_blocks_of_size_two_under_congruence():
    # no other test has a non-real Jordan block of size >= 2: R - mu I is
    # Gaussian there, and its powers run on the real form
    p = corpus.jk_gaussian().pair
    assert p.dim == 13
    for k in range(2):
        sp = SamplingPolicy(40 + k)
        inv = jk_invariants(congruent_pair(p, corpus.unit_lower_upper(p.dim, sp.spawn(1))))
        assert inv.to_json_dict() == {"corank": 1, "kronecker": [2],
                                      "jordan": {"(1+2i)": [2], "(1-2i)": [2]}}


def jordan_matrix(lam, sizes):
    """Block-diagonal matrix of Jordan blocks J(lam) of the given sizes."""
    m = sum(sizes)
    R = [[lam * 0] * m for _ in range(m)]
    offset = 0
    for s in sizes:
        for i in range(s):
            R[offset + i][offset + i] = lam
            if i + 1 < s:
                R[offset + i][offset + i + 1] = lam * 0 + 1
        offset += s
    return R


@pytest.mark.parametrize("lam", [
    Fraction(3, 2), QQi(Fraction(1), Fraction(-2, 3)), QQi(Fraction(1), Fraction(1), 2)],
    ids=["rational", "gaussian", "real-quadratic"])
def test_jordan_sizes_take_one_product_less_than_ranks(monkeypatch, lam):
    calls = {"mat_mul": 0, "Elimination": 0}
    for name in calls:
        real = getattr(jk, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(jk, name, counted)
    # R sees each pencil block twice: sizes 3, 1 at the pencil level
    R = jordan_matrix(lam, [3, 3, 1, 1])
    assert jk._jordan_sizes_at(R, lam) == [1, 3]
    assert calls == {"mat_mul": 3, "Elimination": 4}
