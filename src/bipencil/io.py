"""Pencil and report file formats.

One file holds one pencil; analysis points travel on the command line, so
fixtures stay point-independent.  Rationals are serialized as strings to
avoid float corruption; report JSON is canonical (sorted keys, fixed indent),
hence byte-stable for identical inputs and seeds in exact mode.  An input
file is strict JSON: the NaN and Infinity that ``json`` would accept are
refused.  A pencil file is read in one pass, each coefficient made a Fraction
once, by ``parse_rational``, and kept as it is by ``Poly``.
"""

from __future__ import annotations

import json

from .catalog import CatalogEntry
from .errors import InputFormatError
from .poly import Poly
from .scalars import parse_int, parse_rational
from .tensorfield import PoissonTensorField

FORMAT_VERSION = 1


def field_to_entries(f: PoissonTensorField) -> list:
    out = []
    for (i, j) in sorted(f.upper_entries()):
        poly = f.entry(i, j)
        monos = []
        for mono, c in sorted(poly.terms.items()):
            monos.append({"c": str(c), "m": list(mono)})
        out.append({"i": i + 1, "j": j + 1, "poly": monos})
    return out


def _not_a_list(position: str) -> InputFormatError:
    return InputFormatError(f"'{position}' must be a list", position=position)


def _list(value, position: str) -> list:
    if not isinstance(value, list):
        raise _not_a_list(position)
    return value


def entries_to_field(dim: int, varnames, data, label: str) -> PoissonTensorField:
    """The field of one pencil block, each coefficient parsed once: a
    monomial's first term is kept as parsed, a repeated one adds, and one
    that sums to 0 is dropped, as ``Poly`` addition drops it.  A position
    string is formatted only for the ``InputFormatError`` that names it."""
    f = PoissonTensorField(dim, varnames)
    seen = set()
    for pos, ent in enumerate(_list(data, label)):
        try:
            i, j = parse_int(ent["i"]), parse_int(ent["j"])
        except (KeyError, TypeError, ValueError) as exc:
            where = f"{label}[{pos}]"
            raise InputFormatError(f"bad indices at {where}: {exc}", position=where)
        if not (1 <= i < j <= dim):
            where = f"{label}[{pos}]"
            raise InputFormatError(
                f"entry indices must satisfy 1 <= i < j <= dim at {where}", position=where)
        if (i, j) in seen:
            where = f"{label}[{pos}]"
            raise InputFormatError(f"duplicate entry ({i}, {j}) at {where}", position=where)
        seen.add((i, j))
        monomials = ent.get("poly", [])
        if not isinstance(monomials, list):
            raise _not_a_list(f"{label}[{pos}].poly")
        terms = {}
        for mpos, term in enumerate(monomials):
            try:
                c = parse_rational(term["c"])
                m = term["m"]
                if not isinstance(m, list):
                    raise _not_a_list(f"{label}[{pos}].poly[{mpos}].m")
                if not all(type(x) is int for x in m):
                    m = [parse_int(x) for x in m]
            except (KeyError, TypeError, ValueError) as exc:
                mwhere = f"{label}[{pos}].poly[{mpos}]"
                raise InputFormatError(f"bad monomial at {mwhere}: {exc}", position=mwhere)
            if len(m) != dim or min(m) < 0:
                mwhere = f"{label}[{pos}].poly[{mpos}]"
                raise InputFormatError(
                    f"exponent vector must have length dim and be non-negative at {mwhere}",
                    position=mwhere)
            m = tuple(m)
            if m in terms:
                total = terms[m] + c
                if total:
                    terms[m] = total
                else:
                    del terms[m]
            elif c:
                terms[m] = c
        f.set_entry(i - 1, j - 1, Poly(dim, terms))
    return f


def pencil_to_json_dict(field0: PoissonTensorField, field_inf: PoissonTensorField,
                        declared_rank: int | None = None, meta: dict | None = None) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "dim": field0.dim,
        "vars": list(field0.vars),
        "P0": field_to_entries(field0),
        "Pinf": field_to_entries(field_inf),
    }
    if declared_rank is not None:
        doc["declared_rank"] = declared_rank
    if meta:
        doc["meta"] = meta
    return doc


def pencil_from_json_dict(doc: dict):
    """Returns (field0, field_inf, declared_rank, meta)."""
    try:
        dim = parse_int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"missing or bad 'dim': {exc}", position="dim")
    if dim < 1:
        raise InputFormatError(f"'dim' must be positive, not {dim}", position="dim")
    varnames = doc.get("vars")
    if varnames is not None and not (isinstance(varnames, list) and len(varnames) == dim
                                     and all(isinstance(v, str) for v in varnames)):
        raise InputFormatError(f"'vars' must be a list of {dim} strings", position="vars")
    if "P0" not in doc or "Pinf" not in doc:
        raise InputFormatError("both 'P0' and 'Pinf' blocks are required")
    f0 = entries_to_field(dim, varnames, doc["P0"], "P0")
    finf = entries_to_field(dim, varnames, doc["Pinf"], "Pinf")
    declared = doc.get("declared_rank")
    if declared is not None:
        try:
            declared = parse_int(declared)
        except ValueError as exc:
            raise InputFormatError(f"bad 'declared_rank': {exc}", position="declared_rank")
        if declared < 0 or declared > dim or declared % 2 != 0:
            raise InputFormatError("declared_rank must be an even integer in [0, dim]",
                                   position="declared_rank")
    return f0, finf, declared, doc.get("meta", {})


def dump_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON value")


def read_json(path: str, option: str):
    """The JSON document in the file given to ``option``; an unreadable or
    malformed file is an input error at that option, and a malformed one's
    message keeps json's line and column.  The tokens NaN, Infinity and
    -Infinity, which ``json`` would accept, are refused as malformed."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise InputFormatError(f"cannot read {option} file: {exc}", position=option) from exc
    except ValueError as exc:
        raise InputFormatError(f"invalid JSON in {option} file: {exc}",
                               position=option) from exc


def load_pencil_file(path: str):
    return pencil_from_json_dict(read_json(path, "--pencil"))


def catalog_entry_to_json_dict(entry: CatalogEntry) -> dict:
    return pencil_to_json_dict(
        entry.field0, entry.field_inf, entry.declared_rank,
        meta={"name": entry.name, "description": entry.description})


def report_document(report, provenance: dict) -> dict:
    return {"report": report.to_json_dict(), "provenance": provenance}


def parse_point_csv(text: str, dim: int, option: str = "--point"):
    """The ``dim`` comma-separated rationals given to ``option``."""
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise InputFormatError(f"empty coordinate in '{text}'", position=option)
    if len(parts) != dim:
        raise InputFormatError(f"{option} has {len(parts)} values, expected {dim}",
                               position=option)
    try:
        return [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise InputFormatError(f"bad point coordinate: {exc}", position=option)
