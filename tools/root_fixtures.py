"""Write the squarefree parts that pin ``exactlin.gaussian_rational_roots``.

    python3 tools/root_fixtures.py

Run from anywhere inside the repository.  At each argument-shift point
``oracles.sln.shift_case(n, b, seed)`` of ``CASES`` the pencil is evaluated
exactly, and its recursion operator R is built between the core's first two
regular parameters, as ``analyzer.analyze_point`` and
``pencil.compute_spectrum`` build it.  The squarefree
part of R's characteristic polynomial, from
``exactlin.squarefree_decomposition``, is written to
``tests/fixtures/shift_squarefree.json`` as a list of ascending coefficient
strings per case.  Every root of these polynomials is a rational (b = 0) or a
Gaussian rational (b = 1), one per pair of eigenvalues of x - lambda a that
meet; the float search that exact mode used before found only 3 to 10 of
their 21 to 29 roots.  Building R takes about a minute in all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "fixtures" / "shift_squarefree.json"
CASES = ((8, 0, 1), (8, 0, 3), (9, 0, 1), (7, 1, 1), (8, 1, 1))


def squarefree_part(n: int, b: int, seed: int):
    from bipencil.exactlin import char_poly, squarefree_decomposition
    from bipencil.pencil import (compute_core, pencil_rank_corank, quotient_basis,
                                 recursion_operator)
    from bipencil.tensorfield import evaluate_pencil
    from oracles.sln import shift_case

    case = shift_case(n, b, seed)
    entry = case.entry()
    p = evaluate_pencil(entry.field0, entry.field_inf, case.point, exact_required=True)
    core = compute_core(p, rank=pencil_rank_corank(p)[0])
    t1, t2 = core.regular_params[:2]
    R = recursion_operator(p, quotient_basis(p, core), t1, t2)
    return squarefree_decomposition(char_poly(R.matrix))[0]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    doc = {f"sl{n}.b{b}.seed{seed}": [str(c) for c in squarefree_part(n, b, seed)]
           for n, b, seed in CASES}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
