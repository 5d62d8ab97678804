"""Built-in pencils: argument-shift pencils on the classical low-dimensional
algebras, the diamond family, and the degenerate counterexample pencil.

Every entry carries a golden expected summary (verdict, type, block counts)
and its polynomial Casimirs, which the property suites reuse as exact
first-integral data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import algebras
from .liealg import LieAlgebra, argument_shift_cocycle
from .poly import Poly
from .tensorfield import PoissonTensorField, lift


@dataclass
class ExpectedSummary:
    verdict: str                     # "NonDegenerate" | "Degenerate" | "Regular"
    type: tuple | None = None        # (ke, kh, kf) when NonDegenerate
    blocks: dict | None = None       # nonzero block counts
    spectrum: tuple = (Fraction(0),)
    degeneracy_code: str | None = None


@dataclass
class CatalogEntry:
    name: str
    field0: PoissonTensorField
    field_inf: PoissonTensorField
    point: list
    declared_rank: int
    expected: ExpectedSummary
    algebra: LieAlgebra | None = None
    shift: list | None = None        # the frozen covector a, when argument-shift
    casimirs: list = field(default_factory=list)   # polynomial Casimirs of P_0
    description: str = ""


def _constant_field(dim: int, matrix, varnames=None) -> PoissonTensorField:
    f = PoissonTensorField(dim, varnames)
    for i in range(dim):
        for j in range(i + 1, dim):
            if matrix[i][j] != 0:
                f.set_entry(i, j, Poly.constant(dim, matrix[i][j]))
    return f


def _shift_entry(name, algebra, a, rank, expected, casimirs, description="") -> CatalogEntry:
    p0 = algebra.lie_poisson_field()
    cocycle = argument_shift_cocycle(algebra, a)
    pinf = _constant_field(algebra.dim, cocycle.matrix, algebra.labels)
    return CatalogEntry(name=name, field0=p0, field_inf=pinf,
                        point=[Fraction(0)] * algebra.dim, declared_rank=rank,
                        expected=expected, algebra=algebra, shift=list(a),
                        casimirs=casimirs, description=description)


def _sl2_casimir() -> Poly:
    # basis (h, e, f): q = h^2 + 4 e f
    q = Poly.monomial(3, (2, 0, 0))
    return q + Poly.monomial(3, (0, 1, 1), 4)


def catalog() -> list:
    """All built-in entries, in a stable order."""
    entries = []
    F0, F1 = Fraction(0), Fraction(1)

    so3 = algebras.so3()
    q_so3 = Poly.monomial(3, (2, 0, 0)) + Poly.monomial(3, (0, 2, 0)) + Poly.monomial(3, (0, 0, 2))
    entries.append(_shift_entry(
        "so3_shift", so3, [F0, F0, F1], 2,
        ExpectedSummary("NonDegenerate", (1, 0, 0), {"so3": 1}),
        [q_so3], "rotation algebra with a regular shift: elliptic"))

    sl2 = algebras.sl2()
    q_sl2 = _sl2_casimir()
    entries.append(_shift_entry(
        "sl2_shift_pos", sl2, [F1, F0, F0], 2,
        ExpectedSummary("NonDegenerate", (0, 1, 0), {"sl2_pos_killing": 1}),
        [q_sl2], "split rank-one algebra, shift with positive Killing square: hyperbolic"))
    entries.append(_shift_entry(
        "sl2_shift_neg", sl2, [F0, F1, Fraction(-1)], 2,
        ExpectedSummary("NonDegenerate", (1, 0, 0), {"sl2_neg_killing": 1}),
        [q_sl2], "split rank-one algebra, compact-direction shift: elliptic"))
    entries.append(_shift_entry(
        "sl2_shift_null", sl2, [F0, F1, F0], 2,
        ExpectedSummary("Degenerate", degeneracy_code="AdNotSemisimple"),
        [q_sl2], "shift on the light cone: nilpotent kernel action, degenerate"))

    so31 = algebras.so3_complex_real_form()
    q_re = (Poly.monomial(6, (2, 0, 0, 0, 0, 0)) + Poly.monomial(6, (0, 2, 0, 0, 0, 0))
            + Poly.monomial(6, (0, 0, 2, 0, 0, 0)) - Poly.monomial(6, (0, 0, 0, 2, 0, 0))
            - Poly.monomial(6, (0, 0, 0, 0, 2, 0)) - Poly.monomial(6, (0, 0, 0, 0, 0, 2)))
    q_im = (Poly.monomial(6, (1, 0, 0, 1, 0, 0), 2) + Poly.monomial(6, (0, 1, 0, 0, 1, 0), 2)
            + Poly.monomial(6, (0, 0, 1, 0, 0, 1), 2))
    entries.append(_shift_entry(
        "so31_shift", so31, [F0, F0, F1, F0, F0, F0], 4,
        ExpectedSummary("NonDegenerate", (0, 0, 1), {"so3C": 1}),
        [q_re, q_im], "complex rotation algebra as a real form: focus-focus"))

    so4 = algebras.so4()
    q1 = lift(q_so3, 6, 0)
    q2 = lift(q_so3, 6, 3)
    entries.append(_shift_entry(
        "so4_shift", so4, [F0, F0, F1, F0, F0, Fraction(2)], 4,
        ExpectedSummary("NonDegenerate", (2, 0, 0), {"so3": 2}),
        [q1, q2], "product of two rotation algebras: center-center"))

    so22 = algebras.so22()
    s1 = lift(q_sl2, 6, 0)
    s2 = lift(q_sl2, 6, 3)
    entries.append(_shift_entry(
        "so22_shift_saddle_saddle", so22, [F1, F0, F0, F1, F0, F0], 4,
        ExpectedSummary("NonDegenerate", (0, 2, 0), {"sl2_pos_killing": 2}),
        [s1, s2], "two split factors, both shifts hyperbolic"))
    entries.append(_shift_entry(
        "so22_shift_saddle_center", so22, [F1, F0, F0, F0, F1, Fraction(-1)], 4,
        ExpectedSummary("NonDegenerate", (1, 1, 0),
                        {"sl2_pos_killing": 1, "sl2_neg_killing": 1}),
        [s1, s2], "two split factors, one hyperbolic and one elliptic shift"))
    entries.append(_shift_entry(
        "so22_shift_center_center", so22, [F0, F1, Fraction(-1), F0, F1, Fraction(-1)], 4,
        ExpectedSummary("NonDegenerate", (2, 0, 0), {"sl2_neg_killing": 2}),
        [s1, s2], "two split factors, both shifts elliptic"))

    dia = algebras.diamond()
    f1 = Poly.monomial(4, (0, 0, 1, 0))
    f2 = (Poly.monomial(4, (2, 0, 0, 0)) + Poly.monomial(4, (0, 2, 0, 0))
          + Poly.monomial(4, (0, 0, 1, 1), 2))
    entries.append(_shift_entry(
        "diamond_shift", dia, [F0, F0, F1, F0], 2,
        ExpectedSummary("NonDegenerate", (1, 0, 0), {"diamond": 1}),
        [f1, f2], "diamond algebra with central shift: elliptic"))

    diah = algebras.diamond_h()
    g1 = Poly.monomial(4, (0, 0, 1, 0))
    g2 = Poly.monomial(4, (1, 1, 0, 0)) + Poly.monomial(4, (0, 0, 1, 1))
    entries.append(_shift_entry(
        "diamond_h_shift", diah, [F0, F0, F1, F0], 2,
        ExpectedSummary("NonDegenerate", (0, 1, 0), {"diamond_h": 1}),
        [g1, g2], "split diamond with central shift: hyperbolic"))

    diac = algebras.diamond_complexified()
    # complex Casimirs h and e^2 + f^2 + 2 t h, split into real and imaginary parts
    h_re = Poly.monomial(8, (0, 0, 1, 0, 0, 0, 0, 0))
    h_im = Poly.monomial(8, (0, 0, 0, 0, 0, 0, 1, 0))
    c_re = (Poly.monomial(8, (2, 0, 0, 0, 0, 0, 0, 0)) - Poly.monomial(8, (0, 0, 0, 0, 2, 0, 0, 0))
            + Poly.monomial(8, (0, 2, 0, 0, 0, 0, 0, 0)) - Poly.monomial(8, (0, 0, 0, 0, 0, 2, 0, 0))
            + Poly.monomial(8, (0, 0, 1, 1, 0, 0, 0, 0), 2)
            - Poly.monomial(8, (0, 0, 0, 0, 0, 0, 1, 1), 2))
    c_im = (Poly.monomial(8, (1, 0, 0, 0, 1, 0, 0, 0), 2)
            + Poly.monomial(8, (0, 1, 0, 0, 0, 1, 0, 0), 2)
            + Poly.monomial(8, (0, 0, 1, 0, 0, 0, 0, 1), 2)
            + Poly.monomial(8, (0, 0, 0, 1, 0, 0, 1, 0), 2))
    a_c = [F0] * 8
    a_c[2] = F1
    entries.append(_shift_entry(
        "diamond_C_shift", diac, a_c, 4,
        ExpectedSummary("NonDegenerate", (0, 0, 1), {"diamond_C": 1}),
        [h_re, h_im, c_re, c_im], "complexified diamond: focus-focus"))

    entries.append(_bad_example())
    return entries


def _bad_example() -> CatalogEntry:
    """Cubic rescaling of the rotation structure against a constant rank-2 form.

    At the origin the kernel bracket vanishes identically (all derivatives of
    the cubic entries vanish), so the linearization has only zero roots and
    the point is degenerate despite the naive quadratic integral being Morse.
    """
    so3 = algebras.so3()
    base = so3.lie_poisson_field()
    r2 = (Poly.monomial(3, (2, 0, 0)) + Poly.monomial(3, (0, 2, 0))
          + Poly.monomial(3, (0, 0, 2)))
    p0 = PoissonTensorField(3, so3.labels)
    for (i, j), poly in base.upper_entries().items():
        p0.set_entry(i, j, poly * r2)
    const = [[Fraction(0)] * 3 for _ in range(3)]
    const[0][1] = Fraction(1)
    const[1][0] = Fraction(-1)
    pinf = _constant_field(3, const, so3.labels)
    return CatalogEntry(
        name="bad_example", field0=p0, field_inf=pinf,
        point=[Fraction(0)] * 3, declared_rank=2,
        expected=ExpectedSummary("Degenerate", degeneracy_code="RootsDependent"),
        casimirs=[r2],
        description="zero linearization at the origin; only the third coordinate "
                    "survives in the constant kernel")


def catalog_by_name() -> dict:
    return {e.name: e for e in catalog()}
