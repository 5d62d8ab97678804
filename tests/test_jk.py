from fractions import Fraction

import pytest

from bipencil import jk, pencil
from bipencil.errors import ToleranceError
from bipencil.exactlin import mat_rank_exact
from bipencil.jk import (JordanBlock, KroneckerBlock, assemble_jk_canonical_pair,
                         congruent_pair, jk_invariants)
from bipencil.sampling import SamplingPolicy
from bipencil.scalars import INF, QQi

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
    inv = jk_invariants(p, SamplingPolicy(3))
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {}}


def test_invariants_kronecker_plus_symplectic_block():
    # 2x2 pair (A0 = 0, Ainf symplectic) is a single size-1 Jordan block at zero
    p = assemble_jk_canonical_pair([KroneckerBlock(1), JordanBlock(Fraction(0), 1)])
    inv = jk_invariants(p, SamplingPolicy(5))
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {"0": [1]}}


def test_invariants_mixed_sizes_and_infinity():
    blocks = [KroneckerBlock(2), KroneckerBlock(0), JordanBlock(Fraction(3), 2),
              JordanBlock(Fraction(3), 1), JordanBlock(INF, 1)]
    p = assemble_jk_canonical_pair(blocks)
    inv = jk_invariants(p, SamplingPolicy(11))
    assert inv.to_json_dict() == {
        "corank": 2, "kronecker": [0, 2], "jordan": {"3": [1, 2], "inf": [1]}}
    assert inv.total_dimension() == p.dim


def test_invariants_complex_conjugate_blocks():
    blocks = [KroneckerBlock(1), JordanBlock(QQi(0, 1), 1), JordanBlock(QQi(0, -1), 1)]
    p = assemble_jk_canonical_pair(blocks)
    inv = jk_invariants(p, SamplingPolicy(13))
    assert inv.kronecker_indices == [1]
    assert inv.jordan == {"(0+1i)": [1], "(0-1i)": [1]}


def test_congruence_invariance():
    sp = SamplingPolicy(17)
    blocks = [KroneckerBlock(1), JordanBlock(Fraction(-1, 2), 2), JordanBlock(INF, 1)]
    p = assemble_jk_canonical_pair(blocks)
    base = jk_invariants(p, sp.spawn(1)).to_json_dict()
    for k in range(3):
        U = integer_matrix(sp.spawn(100 + k), p.dim)
        got = jk_invariants(congruent_pair(p, U), sp.spawn(200 + k)).to_json_dict()
        assert got == base


def test_toda_singular_point_invariants():
    p = toda_pencil_at(constant_lattice(2))
    inv = jk_invariants(p, SamplingPolicy(19))
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
    inv = jk_invariants(p, SamplingPolicy(29))
    assert inv.to_json_dict() == {"corank": 1, "kronecker": [1], "jordan": {"-1/2": [2]}}
    assert len(qbasis) == 1 and len(recursion) == 1
