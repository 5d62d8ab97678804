"""Exact polynomial identities of Poisson tensor fields.

Partial derivatives as polynomials and values as term-by-term Fraction sums,
the definitions that the library's integer evaluation reproduces; gradients,
Hessians and translations of polynomials; the Jacobi identity and
compatibility of polynomial fields; the direct sum of two pencils; and the
shifted Casimirs of an argument-shift catalog entry, which annihilate every
bracket of its pencil.
"""

from __future__ import annotations

from fractions import Fraction

from bipencil.errors import DimensionMismatchError
from bipencil.poly import Poly
from bipencil.tensorfield import PoissonTensorField, lift


def diff(q: Poly, i: int) -> Poly:
    """d/dx_i of ``q``, term by term."""
    out = {}
    for mono, c in q.terms.items():
        e = mono[i]
        if e == 0:
            continue
        lowered = list(mono)
        lowered[i] = e - 1
        out[tuple(lowered)] = c * e
    return Poly(q.nvars, out)


def term_sum(q: Poly, point):
    """q at ``point`` by its definition: each term multiplied out from its
    coefficient one coordinate at a time and added in turn from 0, a Fraction
    sum at a point in Q, a float sum from float(c) at a float point."""
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    total = Fraction(0) if exact else 0.0
    for mono, c in q.terms.items():
        term = c if exact else float(c)
        for x, e in zip(point, mono):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def gradient(q: Poly) -> list:
    return [diff(q, i) for i in range(q.nvars)]


def hessian(q: Poly) -> list:
    grads = gradient(q)
    return [[diff(grads[i], j) for j in range(q.nvars)] for i in range(q.nvars)]


def shift(q: Poly, offsets) -> Poly:
    """Compose with the translation x_i -> x_i + offsets[i] (exact expansion)."""
    if len(offsets) != q.nvars:
        raise ValueError("offset arity mismatch")
    moved = [Poly.variable(q.nvars, i) + Fraction(o) for i, o in enumerate(offsets)]
    out = Poly.zero(q.nvars)
    for mono, c in q.terms.items():
        term = Poly.constant(q.nvars, c)
        for x, e in zip(moved, mono):
            for _ in range(e):
                term = term * x
        out = out + term
    return out


def degree(q: Poly) -> int:
    if not q.terms:
        return 0
    return max(sum(m) for m in q.terms)


def jacobi_defect(f: PoissonTensorField, i: int, j: int, k: int) -> Poly:
    """The (i,j,k) component of the Jacobiator, as an exact polynomial."""
    total = Poly.zero(f.dim)
    for l in range(f.dim):
        total = total + f.entry(l, k) * diff(f.entry(i, j), l)
        total = total + f.entry(l, i) * diff(f.entry(j, k), l)
        total = total + f.entry(l, j) * diff(f.entry(k, i), l)
    return total


def verify_jacobi(f: PoissonTensorField) -> bool:
    """Exact polynomial Jacobi identity over all index triples."""
    d = f.dim
    return all(jacobi_defect(f, i, j, k).is_zero()
               for i in range(d) for j in range(i + 1, d) for k in range(j + 1, d))


def add(f: PoissonTensorField, g: PoissonTensorField) -> PoissonTensorField:
    if g.dim != f.dim:
        raise DimensionMismatchError("field dimension mismatch")
    out = PoissonTensorField(f.dim, f.vars)
    for (i, j) in f.upper_entries().keys() | g.upper_entries().keys():
        out.set_entry(i, j, f.entry(i, j) + g.entry(i, j))
    return out


def fields_compatible(field0: PoissonTensorField, field_inf: PoissonTensorField) -> bool:
    """Exact compatibility: the sum of two Poisson fields is again Poisson.

    Each field must satisfy Jacobi on its own; the mixed identity is then
    equivalent to Jacobi for field0 + field_inf.
    """
    return (verify_jacobi(field0) and verify_jacobi(field_inf)
            and verify_jacobi(add(field0, field_inf)))


def direct_sum(a0: PoissonTensorField, ainf: PoissonTensorField,
               b0: PoissonTensorField, binf: PoissonTensorField):
    """Block-diagonal concatenation of two pencils."""
    d = a0.dim + b0.dim
    names = [f"p.{v}" for v in a0.vars] + [f"q.{v}" for v in b0.vars]

    def combine(fa: PoissonTensorField, fb: PoissonTensorField) -> PoissonTensorField:
        out = PoissonTensorField(d, names)
        for (i, j), p in fa.upper_entries().items():
            out.set_entry(i, j, lift(p, d, 0))
        off = a0.dim
        for (i, j), p in fb.upper_entries().items():
            out.set_entry(i + off, j + off, lift(p, d, off))
        return out

    return combine(a0, b0), combine(ainf, binf)


def casimir_family(entry, lam) -> list:
    """Polynomial Casimirs of P_lambda for an argument-shift catalog entry.

    P_lambda(x) equals the Lie-Poisson matrix at x + lambda*a, so shifted
    Casimirs q(x + lambda a) annihilate P_lambda pointwise.
    """
    if entry.shift is None:
        raise ValueError(f"{entry.name} has no argument-shift structure")
    offsets = [lam * ai for ai in entry.shift]
    return [shift(q, offsets) for q in entry.casimirs]
