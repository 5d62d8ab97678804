"""Command-line interface.

Exit codes: 0 success; 1 input error (usage, parse and Jacobi failures, an
input file that cannot be read or parsed, named by its option --pencil,
--algebra or --cocycle, and an output path that cannot be written, named by
its option --out or --emit, "error": "input"); 2 refused precondition
(rank-deficient point, phase-space violation, "error": "refused"); 1 for any
other library error, such as ToleranceError or SingularParameterError
("error": "error").  Errors are mirrored as machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from . import __version__
from .analyzer import analyze_point
from .catalog import catalog, catalog_by_name
from .errors import (BipencilError, InputFormatError, PreconditionError,
                     RankDeficientPointError)
from .io import (catalog_entry_to_json_dict, dump_canonical, load_pencil_file,
                 parse_point_csv, read_json, report_document)
from .jk import jk_invariants
from .liealg import (LieAlgebra, LinearPencil, TwoCocycle, is_cocycle, is_regular_cocycle,
                     kernel_of_cocycle, matrix_is_semisimple)
from .roots import analyze_linear
from .scalars import EXACT, Mode, claim, float_mode, format_scalar, is_inf, near
from .tensorfield import evaluate_pencil
from .toda import TodaPoint, random_point, toda_pencil, toda_spectrum_via_lax

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSED = 2


def _emit_error(code: str, message, position=None) -> None:
    doc = {"error": code, "message": str(message)}
    if position is not None:
        doc["position"] = str(position)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _write_atomic(text: str, path) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bipencil-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        _write_atomic(text, out_path)
    except OSError as exc:
        raise InputFormatError(f"cannot write the report: {exc}", position="--out") from exc


def _arithmetic(args) -> Mode:
    """The mode of --mode; --tol must lie in (0, 1) (the rule of
    ``float_mode``) in either mode."""
    try:
        mode = float_mode(args.tol)
    except ValueError as exc:
        raise InputFormatError(str(exc), position="--tol") from exc
    return EXACT if args.mode == "exact" else mode


def _provenance(args, extra=None) -> dict:
    doc = {"library_version": __version__, "mode": args.mode,
           "tolerance": args.tol if args.mode == "float" else None,
           "seed": args.seed}
    if extra:
        doc.update(extra)
    return doc


def cmd_analyze(args) -> int:
    field0, field_inf, declared, meta = load_pencil_file(args.pencil)
    point = parse_point_csv(args.point, field0.dim)
    report = analyze_point(field0, field_inf, point, _arithmetic(args), declared)
    doc = report_document(report, _provenance(args, {
        "pencil_file": args.pencil, "pencil_meta": meta,
        "point": [format_scalar(x) for x in point]}))
    _write_output(dump_canonical(doc), args.out)
    return EXIT_OK


def cmd_toda(args) -> int:
    n = args.n
    if n < 2:
        raise InputFormatError(f"--n must be at least 2, not {n}", position="--n")
    if args.scan < 0:
        raise InputFormatError(f"--scan must be non-negative, not {args.scan}",
                               position="--scan")
    mode = _arithmetic(args)
    field0, field_inf = toda_pencil(n)
    reports = []

    def analyze_toda_point(pt: TodaPoint) -> dict:
        report = analyze_point(field0, field_inf, pt.coordinates(), mode, 2 * n - 2)
        lax = toda_spectrum_via_lax(pt, mode)
        lax_block = [{"lambda": format_scalar(e.lam),
                      "lax_eigenvalue": format_scalar(e.lax_eigenvalue),
                      "which": e.which, "multiplicity": e.multiplicity}
                     for e in lax]
        # each pencil lambda claims one Lax lambda, equal in exact mode and
        # within 1000 * tol * max(1, |lambda|) in float mode
        entries, lax_lams, used = report.spectrum.entries, [e.lam for e in lax], set()
        agrees = len(entries) == len(lax_lams) and all(
            not is_inf(e.lam) and claim(lax_lams, used, lambda lam: near(
                e.lam, lam, 1000 * mode.tol * max(1.0, abs(complex(e.lam))))) is not None
            for e in entries)
        return {"a": [format_scalar(x) for x in pt.a],
                "b": [format_scalar(x) for x in pt.b],
                "report": report.to_json_dict(),
                "lax_oracle": lax_block,
                "oracle_agrees": agrees}

    if args.scan:
        for k in range(args.scan):
            reports.append(analyze_toda_point(random_point(n, args.seed + 7919 * k)))
    else:
        if args.a is None or args.b is None:
            raise InputFormatError("either --a/--b or --scan is required")
        a = parse_point_csv(args.a, n, "--a")
        b = parse_point_csv(args.b, n, "--b")
        reports.append(analyze_toda_point(TodaPoint(n=n, a=a, b=b)))

    summary = {
        "n": n,
        "count": len(reports),
        "verdicts": sorted({r["report"]["verdict"]["kind"] for r in reports}),
        "all_oracle_agree": all(r["oracle_agrees"] for r in reports),
    }
    doc = {"provenance": _provenance(args), "summary": summary, "points": reports}
    _write_output(dump_canonical(doc), args.out)
    return EXIT_OK


def cmd_jk(args) -> int:
    field0, field_inf, declared, _meta = load_pencil_file(args.pencil)
    point = parse_point_csv(args.point, field0.dim)
    _arithmetic(args)       # checks --tol; jk decides exactly in either mode
    inv = jk_invariants(evaluate_pencil(field0, field_inf, point, exact_required=True))
    doc = {"invariants": inv.to_json_dict(),
           "provenance": _provenance(args, {"pencil_file": args.pencil, "tolerance": None,
                                            "point": [format_scalar(x) for x in point]})}
    _write_output(dump_canonical(doc), args.out)
    return EXIT_OK


def cmd_linear(args) -> int:
    alg_doc, coc_doc = read_json(args.algebra, "--algebra"), read_json(args.cocycle, "--cocycle")
    algebra = LieAlgebra.from_json_dict(alg_doc)
    violation = algebra.jacobi_violation()
    if violation is not None:
        i, j, k = violation
        raise InputFormatError(
            f"structure constants violate the Jacobi identity on basis triple "
            f"({i + 1}, {j + 1}, {k + 1})", position="structure")
    cocycle = TwoCocycle.from_json_dict(coc_doc, dim=algebra.dim)
    mode = _arithmetic(args)
    if not is_cocycle(algebra, cocycle, mode):
        raise InputFormatError("the form is not a 2-cocycle for this algebra",
                               position="cocycle")
    lp = LinearPencil(algebra, cocycle)
    kernel = kernel_of_cocycle(lp, mode)
    regular = is_regular_cocycle(lp, mode)
    lin = analyze_linear(lp, mode, kernel)
    doc = {
        "dim": algebra.dim,
        "field": algebra.field,
        "cocycle_rank": algebra.dim - len(kernel.basis),
        "regular": regular,
        "kernel": {"dim": len(kernel.basis),
                   "basis": [[format_scalar(x) for x in v] for v in kernel.basis],
                   "abelian": kernel.abelian,
                   "ad_semisimple": all(matrix_is_semisimple(M, mode)
                                        for M in kernel.ad)},
        "roots": [[format_scalar(x) for x in p.root] for p in lin.data.pairs],
        "nondegenerate": lin.reason is None,
        "degeneracy_reason": lin.reason,
        "type": lin.type.to_json_dict() if lin.type else None,
        "blocks": lin.blocks.to_json_dict() if lin.blocks else None,
        "provenance": _provenance(args, {"algebra_file": args.algebra,
                                         "cocycle_file": args.cocycle}),
    }
    _write_output(dump_canonical(doc), args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.list:
        for entry in catalog():
            print(f"{entry.name}: {entry.description}")
        return EXIT_OK
    if args.emit:
        name, directory = args.emit
        entries = catalog_by_name()
        if name not in entries:
            raise InputFormatError(f"unknown catalog entry '{name}'; "
                                   f"try: {', '.join(sorted(entries))}")
        text = dump_canonical(catalog_entry_to_json_dict(entries[name]))
        path = os.path.join(directory, f"{name}.pencil.json")
        try:
            os.makedirs(directory, exist_ok=True)
            _write_atomic(text, path)
        except OSError as exc:
            raise InputFormatError(f"cannot write the pencil file: {exc}",
                                   position="--emit") from exc
        print(path)
        return EXIT_OK
    raise InputFormatError("catalog requires --list or --emit NAME DIR")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 with a JSON message, not 2."""

    def error(self, message):
        raise InputFormatError(message)


def _attach_list_values(argv):
    """``--b -1,0,1`` as ``--b=-1,0,1`` for the options that take a list of
    rationals: argparse reads a value that starts with '-' as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--point", "--a", "--b") and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and every option default is immutable."""
    ap = _ArgumentParser(
        prog="bipencil",
        description="Williamson-type verdicts for singular points of "
                    "bi-Hamiltonian pencils")
    ap.add_argument("--version", action="version", version=f"bipencil {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="float mode's tolerance: a float is zero when "
                            "|x| <= tol * max(scale, 1)")
        p.add_argument("--seed", type=int, default=0,
                       help="seeds the points of toda --scan; recorded in the provenance")
        p.add_argument("--out", default=None, help="write the report here "
                       "(atomic); default stdout")

    p = sub.add_parser("analyze", help="full singular-point verdict for a pencil file")
    p.add_argument("--pencil", required=True)
    p.add_argument("--point", required=True, help="comma-separated rational coordinates")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("toda", help="analyze periodic lattice points with the "
                                    "spectral cross-oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default=None, help="comma-separated positive rationals")
    p.add_argument("--b", default=None, help="comma-separated rationals")
    p.add_argument("--scan", type=int, default=0, metavar="K",
                   help="analyze K seeded random points and summarize")
    common(p)
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("jk", help="Jordan-Kronecker invariants of the pair at a point")
    p.add_argument("--pencil", required=True)
    p.add_argument("--point", required=True)
    common(p)
    p.set_defaults(func=cmd_jk)

    p = sub.add_parser("linear", help="analyze a linear pencil given by structure "
                                      "constants and a cocycle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cocycle", required=True)
    common(p)
    p.set_defaults(func=cmd_linear)

    p = sub.add_parser("catalog", help="list or emit the built-in pencils")
    p.add_argument("--list", action="store_true")
    p.add_argument("--emit", nargs=2, metavar=("NAME", "DIR"))
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_list_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except InputFormatError as exc:
        _emit_error("input", exc, getattr(exc, "position", None))
        return EXIT_INPUT
    except (RankDeficientPointError, PreconditionError) as exc:
        _emit_error("refused", exc)
        return EXIT_REFUSED
    except BipencilError as exc:
        _emit_error("error", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
