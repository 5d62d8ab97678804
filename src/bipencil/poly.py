"""Sparse multivariate polynomials with exact rational coefficients.

Only the operations the pencil machinery needs: ring arithmetic, partial
derivatives, and evaluation at exact or floating points.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import is_exact_scalar


class Poly:
    """Polynomial in ``nvars`` variables, stored as {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(mono)] = c

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents, c=1) -> "Poly":
        return cls(nvars, {tuple(exponents): Fraction(c)})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial arity mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ------------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[i] = e - 1
            out[tuple(lowered)] = c * e
        return Poly(self.nvars, out)

    def eval(self, point):
        """Evaluate at a point of Fractions (exact result) or floats/complex."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        exact = all(is_exact_scalar(x) for x in point)
        total = Fraction(0) if exact else 0.0
        for mono, c in self.terms.items():
            term = c if exact else float(c)
            for x, e in zip(point, mono):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vars_part = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(mono) if e
            )
            bits.append(f"{c}{'*' + vars_part if vars_part else ''}")
        return " + ".join(bits)
