"""A pencil file's entries read the long way: one ``Poly`` per monomial.

The reference for ``io.entries_to_field``, which collects each entry's terms
in one dict and builds one ``Poly``.  Here every exponent goes through
``parse_int`` and every monomial is added to the entry with ``Poly``
addition, which drops a monomial whose coefficients sum to 0.  The library
must give the same field, its terms in the same order, and the same
``InputFormatError`` message and position for a bad monomial.
"""

from __future__ import annotations

from bipencil.errors import InputFormatError
from bipencil.io import _list
from bipencil.poly import Poly
from bipencil.scalars import parse_int, parse_rational
from bipencil.tensorfield import PoissonTensorField


def entries_to_field(dim: int, varnames, data, label: str) -> PoissonTensorField:
    f = PoissonTensorField(dim, varnames)
    seen = set()
    for pos, ent in enumerate(_list(data, label)):
        where = f"{label}[{pos}]"
        try:
            i, j = parse_int(ent["i"]), parse_int(ent["j"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad indices at {where}: {exc}", position=where)
        if not (1 <= i < j <= dim):
            raise InputFormatError(
                f"entry indices must satisfy 1 <= i < j <= dim at {where}", position=where)
        if (i, j) in seen:
            raise InputFormatError(f"duplicate entry ({i}, {j}) at {where}", position=where)
        seen.add((i, j))
        poly = Poly.zero(dim)
        for mpos, term in enumerate(_list(ent.get("poly", []), f"{where}.poly")):
            mwhere = f"{where}.poly[{mpos}]"
            try:
                c = parse_rational(term["c"])
                m = [parse_int(x) for x in _list(term["m"], f"{mwhere}.m")]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"bad monomial at {mwhere}: {exc}", position=mwhere)
            if len(m) != dim or any(e < 0 for e in m):
                raise InputFormatError(
                    f"exponent vector must have length dim and be non-negative at {mwhere}",
                    position=mwhere)
            poly = poly + Poly.monomial(dim, m, c)
        f.set_entry(i - 1, j - 1, poly)
    return f
