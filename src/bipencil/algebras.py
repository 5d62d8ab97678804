"""The Lie algebras of the catalog's argument-shift pencils."""

from __future__ import annotations

from fractions import Fraction

from .liealg import REAL, LieAlgebra


def so3() -> LieAlgebra:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    g = LieAlgebra(3, REAL, ["e1", "e2", "e3"])
    g.set_bracket(0, 1, [0, 0, Fraction(1)])
    g.set_bracket(1, 2, [Fraction(1), 0, 0])
    g.set_bracket(2, 0, [0, Fraction(1), 0])
    return g


def sl2() -> LieAlgebra:
    """Basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    g = LieAlgebra(3, REAL, ["h", "e", "f"])
    g.set_bracket(0, 1, [0, Fraction(2), 0])
    g.set_bracket(0, 2, [0, 0, Fraction(-2)])
    g.set_bracket(1, 2, [Fraction(1), 0, 0])
    return g


def so3_complex_real_form() -> LieAlgebra:
    """so(3, C) as a 6-dim real algebra, basis (E1,E2,E3, F1,F2,F3), F = iE."""
    g = LieAlgebra(6, REAL, ["E1", "E2", "E3", "F1", "F2", "F3"])
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (i, j), k in eps.items():
        vec_e = [Fraction(0)] * 6
        vec_e[k] = Fraction(1)
        g.set_bracket(i, j, vec_e)            # [E_i, E_j] = E_k
        vec_f = [Fraction(0)] * 6
        vec_f[3 + k] = Fraction(1)
        g.set_bracket(i, 3 + j, vec_f)        # [E_i, F_j] = F_k
        g.set_bracket(3 + i, j, vec_f)        # [F_i, E_j] = F_k
        vec_m = [Fraction(0)] * 6
        vec_m[k] = Fraction(-1)
        g.set_bracket(3 + i, 3 + j, vec_m)    # [F_i, F_j] = -E_k
    return g


def diamond() -> LieAlgebra:
    """Diamond (Nappi-Witten) algebra, basis (e, f, h, t): [e,f]=h, [t,e]=f, [t,f]=-e."""
    g = LieAlgebra(4, REAL, ["e", "f", "h", "t"])
    g.set_bracket(0, 1, [0, 0, Fraction(1), 0])
    g.set_bracket(3, 0, [0, Fraction(1), 0, 0])
    g.set_bracket(3, 1, [Fraction(-1), 0, 0, 0])
    return g


def diamond_h() -> LieAlgebra:
    """Split real form: [e,f]=h, [t,e]=e, [t,f]=-f."""
    g = LieAlgebra(4, REAL, ["e", "f", "h", "t"])
    g.set_bracket(0, 1, [0, 0, Fraction(1), 0])
    g.set_bracket(3, 0, [Fraction(1), 0, 0, 0])
    g.set_bracket(3, 1, [0, Fraction(-1), 0, 0])
    return g


def diamond_complexified() -> LieAlgebra:
    """Diamond over C viewed as an 8-dim real algebra.

    Basis order (e, f, h, t, ie, if, ih, it); brackets extend C-bilinearly.
    """
    g = LieAlgebra(8, REAL, ["e", "f", "h", "t", "ie", "if", "ih", "it"])
    # triples (i, j, k, sign): [b_i, b_j] = sign * b_k on the complex basis (e,f,h,t)
    rel = [(0, 1, 2, 1), (3, 0, 1, 1), (3, 1, 0, -1)]
    for (i, j, k, s) in rel:
        for di in (0, 4):
            for dj in (0, 4):
                # multiplying both arguments by i flips the sign (i^2 = -1);
                # exactly one i factor moves the target into the imaginary span
                sign = -s if (di and dj) else s
                target = k if di == dj else k + 4
                vec = [Fraction(0)] * 8
                vec[target] = Fraction(sign)
                g.set_bracket(i + di, j + dj, vec)
    return g


def so4() -> LieAlgebra:
    return so3().direct_sum(so3())


def so22() -> LieAlgebra:
    return sl2().direct_sum(sl2())
