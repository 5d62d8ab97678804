"""Compare every benchmark job's output between a git revision and this tree.

    python3 tools/jobdiff.py REF [--seeds 1 2]

Run from anywhere inside the repository.  REF is exported with ``git archive``
into a temporary directory.  For each tree (REF's export and the working tree
this file lives in) one child process builds every job of the four benchmark
workloads at each seed through that tree's ``perfbench/workloads.build`` and
runs it through ``run_job``.  The same child then runs the further reports of
``further_jobs``, which the benchmark does not run, whatever the seeds.  Their
inputs come from the working tree's ``tests/oracles/corpus.py`` in both
children, so both trees run the same inputs from one definition, and a REF
without the corpus still runs.
Work-directory paths are replaced by a placeholder, so that only the program's
output is compared.  The jobs whose exit code, stdout or stderr differ are
printed, and counted apart for the benchmark and the further reports, and
again by each job's ``--mode`` (exact where it has none), and those that
exit 0 at REF and nonzero in the tree are counted by mode on their own: a
change that trades a wrong answer for a failure shows there.  A differing
job whose stdout is a report on both sides (``analyze``, ``toda`` and
``linear``) also prints its verdict, type and warning count, REF's and the
tree's, and such reports are counted apart by what moved: the verdict,
type or warning count, only digits of float values, or something else.
In the working tree, each further ``analyze``, ``linear`` or ``jk`` input is compared across
the seeds it runs at, its reports' provenance (which records the seed) set
aside: the analysis draws no random point, so no input may differ.  The
exit code is 1 if any job differs between the trees or any input across its
seeds.  The line count of ``src/`` in both trees is printed beside them,
counted as ``perfbench/run.py`` counts it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("singular-exact", "regular-exact", "float-sweep", "jk-congruent")
PLACEHOLDER = "<workdir>"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FURTHER = "further:"
MODES = ("exact", "float")
FURTHER_SEEDS = range(3)


def further_jobs(workdir: str):
    """(key, argv) of the reports beyond the benchmark jobs, their input files
    written into ``workdir``:

    - catalog ``analyze`` with and without the declared rank (the latter
      certifies the rank at the first points of ``pencil.point_walk``), in
      both modes at seeds 0-2;
    - ``linear`` on every catalog argument-shift algebra with its shift
      cocycle, and with the zero cocycle (Ker A is the whole algebra, so the
      report's ``ad_semisimple`` flag is compared where the root
      decomposition stops at ``KernelNotAbelian``), in both modes at seeds
      0-2;
    - ``linear`` with the cocycle e1 ^ e2, whose kernel is 0, on the abelian
      R^2 and on aff(1) ([e1, e2] = e2), in both modes at seeds 0-2: the
      empty family of ad operators leaves the whole algebra as its joint
      eigenspace, so both are ``RootsDependent``;
    - ``linear`` on R x R^4, [t, x_k] = x_k and [t, y_k] = -y_k, with the
      cocycle x1 ^ y1 + x2 ^ y2, in both modes at seeds 0-2: its root spaces
      g_1 and g_-1 are two-dimensional, so the root 1 repeats and the report
      is ``RootsDependent``;
    - ``linear`` on two algebras over C, written with ``"field": "complex"``:
      so(3) with the shift cocycle by i e3, and the diamond algebra with its
      central shift by h, in both modes at seeds 0-2: the only reports that
      reach the complex-field root decomposition and block classifier;
    - ``linear`` on the kernel algebra and cocycle of the singular Toda
      points ``make_singular_point(n, s)`` for n = 4, 6, 8 and s = 1, 2, each
      written by ``LieAlgebra.to_json_dict`` from the tree's own exact
      linearization, in both modes at seeds 0-2: the only ``linear`` reports
      whose roots lie in Q(sqrt -N), N of up to about 10^12;
    - ``toda --scan 3 --seed 1`` for n = 2..6, in both modes;
    - the symmetric Toda points a_i = 1, b_i = 0 for n = 2..8, in both modes;
    - ``toda`` at ``make_singular_point(n, s)`` for n = 10, 12 and s = 1, 2,
      with CLI seed s, in both modes: the largest float decision matrices, 20
      x 20 and 24 x 24, which no workload builds (``float-sweep`` stops at
      n = 8);
    - exact ``toda`` at ``random_point(n, s)`` for n = 10, 12 and s = 1, 2,
      with CLI seed s: Regular points larger than any ``regular-exact`` job,
      where every exact rank and kernel of the pencil layer is read off one
      elimination per lambda;
    - ``jk`` and ``analyze`` at the origin on ``corpus.jk_pairs()``, the real
      pairs of the benchmark's JK block lists, on the 13-dim pair with
      (1 +- 2i) Jordan blocks of size 2 under two congruences, and on the
      companion pairs ``corpus.sqrt2(1)`` and ``sqrt2(2)``, in both modes at
      seeds 0-2: the only reports that reach ``NonDiagonalizable``, and the
      only ones with lambda irrational in a real quadratic field;
    - ``analyze`` on the rank-0 argument-shift points ``corpus.sl(n, b)``
      with (n, b) = (3, 1), (4, 1), (5, 0) and (6, 0) at CLI seed 1, their
      rank declared, in both modes, with (7, 0) at CLI seed 0 and with
      (8, 0) at CLI seed 1 in exact mode: the largest kernel algebras and
      quotient forms the reports reach, whose float outputs the benchmark
      does not cover, and 20 rational spectrum values from a 42 x 42
      recursion operator at sl(7), and 24 from a 56 x 56 one at sl(8), where
      a float search for the roots of its characteristic polynomial fails;
    - ``analyze`` on ``corpus.sl3_quadratic_factor()``, its rank declared,
      in both modes at seeds 0-2: a singular point off the Toda family whose
      roots are those of a quadratic factor over Q(sqrt 249), which exact
      mode refuses until it holds algebraic numbers of higher degree, so
      that the refusal, and an answer in its place, show here;
    - ``analyze`` on so(3)'s shift pencil written the long way, in both
      modes: exponents as digit strings and integral floats, repeated
      monomials that cancel or add up, and an entry whose terms all cancel,
      so that the pencil file parse is compared on input that the catalog
      files never hold;
    - the input errors of ``input_error_jobs``, which exit 1 or 2.

    The child has put the working tree's ``tests`` on ``sys.path``, whichever
    tree it runs, and REF's ``tests`` is not read: the catalog pencils, the
    Toda and sl(n) points and the constant pairs are cases of
    ``oracles.corpus``, and the complex algebras come from
    ``oracles.algebras``.  The catalog's algebras and the Toda kernel
    algebras are the tree's own.
    """
    from bipencil.algebras import diamond, so3
    from bipencil.catalog import catalog, catalog_by_name
    from bipencil.io import dump_canonical, pencil_to_json_dict
    from bipencil.liealg import argument_shift_cocycle
    from bipencil.linearization import kernel_form, linearize
    from bipencil.pencil import compute_core, compute_spectrum, kernel_basis, pencil_rank_corank
    from bipencil.scalars import QQi
    from oracles import corpus
    from oracles.algebras import with_complex_scalars

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(dump_canonical(doc))
        return path

    def linear(key, alg, coc):
        return [(f"linear {key} {mode} seed={s}", ["linear", "--algebra", alg, "--cocycle", coc,
                                                    "--mode", mode, "--seed", str(s)])
                for mode in MODES for s in FURTHER_SEEDS]

    def on_file(key, case, name, commands=("analyze",), declared=True, modes=MODES,
                seeds=FURTHER_SEEDS):
        path = case.write(os.path.join(workdir, name), declared)
        return [(f"{command} {key} {mode} seed={s}", case.argv(command, mode, s, path))
                for command in commands for mode in modes for s in seeds]

    jobs = []
    for case, entry in zip(corpus.catalog(), catalog()):
        for rank in (case.rank, None):
            jobs += on_file(f"{case.name} rank={rank}", case,
                            f"{case.name}.rank-{rank}.pencil.json", declared=rank is not None)
        if entry.shift is not None:
            alg = write(f"{entry.name}.algebra.json", entry.algebra.to_json_dict())
            cocycles = {"shift": argument_shift_cocycle(entry.algebra, entry.shift).to_json_dict(),
                        "zero": {"dim": entry.algebra.dim, "cocycle": []}}
            for kind, doc in cocycles.items():
                coc = write(f"{entry.name}.{kind}.cocycle.json", doc)
                jobs += linear(f"{entry.name} {kind}", alg, coc)
    e12 = write("e12.cocycle.json", {"dim": 2, "cocycle": [{"i": 1, "j": 2, "c": "1"}]})
    for name, structure in (("abelian2", []), ("aff1", [{"i": 1, "j": 2, "k": 2, "c": "1"}])):
        alg = write(f"{name}.algebra.json", {"dim": 2, "structure": structure})
        jobs += linear(f"{name} e12", alg, e12)
    alg = write("r-r4.algebra.json", {"dim": 5, "structure": [
        {"i": 1, "j": j, "k": j, "c": c} for j, c in ((2, "1"), (3, "1"), (4, "-1"), (5, "-1"))]})
    coc = write("r-r4.cocycle.json", {"dim": 5, "cocycle": [{"i": 2, "j": 4, "c": "1"},
                                                            {"i": 3, "j": 5, "c": "1"}]})
    jobs += linear("r-r4", alg, coc)
    for name, algebra, shift in (("so3C", so3(), [0, 0, QQi(0, 1)]),
                                 ("diamondC", diamond(), [0, 0, 1, 0])):
        algebra = with_complex_scalars(algebra)
        alg = write(f"{name}.algebra.json", algebra.to_json_dict())
        coc = write(f"{name}.shift.cocycle.json",
                    argument_shift_cocycle(algebra, shift).to_json_dict())
        jobs += linear(f"{name} complex shift", alg, coc)
    for n in (4, 6, 8):
        for s in (1, 2):
            p = corpus.toda_singular(n, s).pencil
            rank, _ = pencil_rank_corank(p)
            for k, entry in enumerate(compute_spectrum(p, compute_core(p, rank=rank)).entries):
                ker = kernel_basis(p, entry.lam)
                lp = linearize(p, entry.lam, ker, kernel_form(p, entry.lam, ker))
                alg = write(f"toda{n}.{s}.{k}.algebra.json", lp.algebra.to_json_dict())
                coc = write(f"toda{n}.{s}.{k}.cocycle.json", lp.cocycle.to_json_dict())
                jobs += linear(f"toda kernel n={n} s={s} lambda#{k}", alg, coc)
    for mode in MODES:
        jobs += [(f"toda --scan 3 n={n} {mode}",
                  ["toda", "--n", str(n), "--scan", "3", "--seed", "1", "--mode", mode])
                 for n in range(2, 7)]
        jobs += [(f"toda symmetric n={n} {mode}", corpus.toda_symmetric(n).argv("toda", mode))
                 for n in range(2, 9)]
        jobs += [(f"toda singular n={n} s={s} {mode}",
                  corpus.toda_singular(n, s).argv("toda", mode, s))
                 for n in (10, 12) for s in (1, 2)]
    jobs += [(f"toda random n={n} s={s} exact", corpus.toda_random(n, s).argv("toda", "exact", s))
             for n in (10, 12) for s in (1, 2)]
    pairs = (corpus.jk_pairs() + corpus.jk_gaussian_congruences()
             + [corpus.sqrt2(size) for size in (1, 2)])
    for case in pairs:
        jobs += on_file(case.name, case, f"{case.name}.pencil.json", ("jk", "analyze"))
    for n, b, seed, modes in ((3, 1, 1, MODES), (4, 1, 1, MODES), (5, 0, 1, MODES),
                              (6, 0, 1, MODES), (7, 0, 0, ("exact",)), (8, 0, 1, ("exact",))):
        jobs += on_file(f"sl{n} shift b={b}", corpus.sl(n, b), f"sl{n}.b{b}.pencil.json",
                        modes=modes, seeds=(seed,))
    jobs += on_file("sl3 shift quadratic-factor point", corpus.sl3_quadratic_factor(),
                    "sl3.point.pencil.json")
    shift = catalog_by_name()["so3_shift"]
    long_form = pencil_to_json_dict(shift.field0, shift.field_inf)
    for block in ("P0", "Pinf"):
        for ent in long_form[block]:
            for term in ent["poly"]:
                term["m"] = [str(e) for e in term["m"]]
    long_form["P0"][0]["poly"] += [{"c": "2", "m": ["1", "0", "0"]},
                                   {"c": "-2", "m": [1.0, "0", 0]},
                                   {"c": "1/2", "m": [0, 0, 1]},
                                   {"c": "-1/2", "m": ["0", "0", 1.0]}]
    long_form["Pinf"].append({"i": 1, "j": 3, "poly": [{"c": "3", "m": ["0", "1", "0"]},
                                                       {"c": "-3", "m": [0, 1, 0]}]})
    path = write("so3.long.pencil.json", long_form)
    jobs += [(f"analyze so3 long-form file point={point} {mode}",
              ["analyze", "--pencil", path, "--point=" + point, "--mode", mode])
             for point in ("0,0,0", "1,1/2,-2") for mode in MODES]
    jobs += input_error_jobs(workdir, write)
    return [(FURTHER + key, argv) for key, argv in jobs]


def input_error_jobs(workdir: str, write):
    """(key, argv) of CLI calls that fail on their input: a missing and a
    malformed file for each of ``--pencil``, ``--algebra`` and ``--cocycle``, a
    pencil of dimension 0, a pencil file whose last monomial has an exponent
    true, -1, 1.5 or "x", or a vector of the wrong length, a pencil file with
    a monomial of coefficient true or false in P0's entry (1, 2), analyzed at
    (1, 2, 3), a pencil file with each other error the entry parse raises (an
    index missing, not an integer or out of range, a duplicate entry, a
    ``poly`` or an ``m`` that is not a list, and a coefficient missing, not a
    number, 1/0 or 1e4301, beyond the exponent limit), a pencil file
    whose ``meta`` is NaN, bad ``--point`` values (1e4300 and 1e-4300 among
    them, of 4301 digits, which no report could write), a ``--tol`` of 0 and of
    1, a Toda lattice of one site, a non-positive Toda a_i, an unknown
    catalog name, an algebra that breaks the Jacobi identity and a form that
    is not a cocycle."""
    from bipencil.catalog import catalog_by_name
    from bipencil.io import pencil_to_json_dict

    so3 = catalog_by_name()["so3_shift"]
    pencil = write("errors.so3.pencil.json", pencil_to_json_dict(so3.field0, so3.field_inf, None))
    algebra = write("errors.so3.algebra.json", so3.algebra.to_json_dict())
    cocycle = write("errors.so3.cocycle.json", {"dim": 3, "cocycle": []})
    missing = os.path.join(workdir, "missing.json")
    malformed = os.path.join(workdir, "malformed.json")
    with open(malformed, "w") as fh:
        fh.write('{"dim": 3,')
    # so(3) plus a central e4; the form e1 ^ e4 fails the cocycle identity on
    # (e2, e3, e4), as [e2, e3] = e1
    so3_plus_r = {"dim": 4, "structure": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                                          {"i": 2, "j": 3, "k": 1, "c": "1"},
                                          {"i": 3, "j": 1, "k": 2, "c": "1"}]}
    # [e1, e2] = e3 with [e2, e3] = e2 breaks the Jacobi identity on (e1, e2, e3)
    not_jacobi = {"dim": 3, "structure": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                                          {"i": 2, "j": 3, "k": 2, "c": "1"}]}

    def analyze(path, point="0,0,0", *options):
        return ["analyze", "--pencil", path, "--point=" + point, *options]

    def linear(alg, coc):
        return ["linear", "--algebra", alg, "--cocycle", coc]

    def bad_entry(name, change, point="0,0,0"):
        doc = pencil_to_json_dict(so3.field0, so3.field_inf, None)
        change(doc)
        return analyze(write(f"errors.{name}.pencil.json", doc), point)

    def bad_monomial(name, term, k=-1, point="0,0,0"):
        return bad_entry(name, lambda doc: doc["P0"][k]["poly"].append(term), point)

    return [
        ("error pencil missing", analyze(missing)),
        ("error pencil malformed", analyze(malformed)),
        ("error pencil dim 0", analyze(write("errors.dim0.pencil.json",
                                             {"dim": 0, "P0": [], "Pinf": []}), "0")),
        *((f"error pencil exponent {name}", bad_monomial(f"exponent-{name}", {"c": "1", "m": m}))
          for name, m in (("true", [True, 0, 0]), ("-1", [0, -1, 0]), ("1.5", [0, 0, 1.5]),
                          ("x", ["x", 0, 0]), ("length", [0, 0]))),
        *((f"error pencil coefficient {name}",
           bad_monomial(f"coefficient-{name}", {"c": c, "m": [0, 0, 1]}, 0, "1,2,3"))
          for name, c in (("true", True), ("false", False))),
        *((f"error pencil coefficient {name}", bad_monomial(f"coefficient-{name}", term))
          for name, term in (("missing", {"m": [0, 0, 1]}),
                             ("non-numeric", {"c": "x", "m": [0, 0, 1]}),
                             ("zero-denominator", {"c": "1/0", "m": [0, 0, 1]}),
                             ("exponent 4301", {"c": "1e4301", "m": [0, 0, 1]}))),
        ("error pencil exponents not a list", bad_monomial("exponents-5", {"c": "1", "m": 5})),
        ("error pencil index missing", bad_entry("index-missing", lambda d: d["P0"][0].pop("i"))),
        ("error pencil index 1.5", bad_entry("index-1.5", lambda d: d["P0"][0].update(i=1.5))),
        ("error pencil index out of range",
         bad_entry("index-4", lambda d: d["P0"][-1].update(j=4))),
        ("error pencil duplicate entry",
         bad_entry("duplicate", lambda d: d["P0"].append(d["P0"][0]))),
        ("error pencil poly not a list", bad_entry("poly-5", lambda d: d["P0"][0].update(poly=5))),
        ("error pencil meta NaN", bad_entry("meta-nan", lambda d: d.update(meta=math.nan))),
        ("error algebra missing", linear(missing, cocycle)),
        ("error algebra malformed", linear(malformed, cocycle)),
        ("error cocycle missing", linear(algebra, missing)),
        ("error cocycle malformed", linear(algebra, malformed)),
        ("error point arity", analyze(pencil, "0,0")),
        ("error point empty field", analyze(pencil, "0,,0")),
        ("error point zero denominator", analyze(pencil, "1/0,0,0")),
        ("error point 1e4300", analyze(pencil, "0,1e4300,0")),
        ("error point 1e-4300", analyze(pencil, "0,1e-4300,0")),
        ("error float tol 0", analyze(pencil, "0,0,0", "--mode", "float", "--tol", "0")),
        ("error float tol 1", analyze(pencil, "0,0,0", "--mode", "float", "--tol", "1")),
        ("error toda n = 1", ["toda", "--n", "1", "--scan", "1"]),
        ("error toda a_i = 0", ["toda", "--n", "3", "--a", "1,0,1", "--b", "0,0,0"]),
        ("error catalog unknown name", ["catalog", "--emit", "nosuch", workdir]),
        ("error algebra not Jacobi",
         linear(write("errors.jacobi.algebra.json", not_jacobi), cocycle)),
        ("error form not a cocycle",
         linear(write("errors.so3r.algebra.json", so3_plus_r),
                write("errors.so3r.cocycle.json",
                      {"dim": 4, "cocycle": [{"i": 1, "j": 4, "c": "1"}]}))),
    ]


def seed_groups(results):
    """{input: [result, ...]} of the further ``analyze``, ``linear`` and
    ``jk`` reports of ``results`` whose key names a seed, the ``seed=`` left
    out of the input."""
    groups = {}
    for key, result in results.items():
        if re.match(FURTHER + "(analyze|linear|jk) ", key) and " seed=" in key:
            groups.setdefault(re.sub(r" seed=\d+", "", key), []).append(result)
    return groups


def without_provenance(result):
    """[code, stdout, stderr] of a run, a report's ``provenance`` removed
    from its stdout."""
    code, out, err, _mode = result
    try:
        doc = json.loads(out)
    except ValueError:
        return [code, out, err]
    doc.pop("provenance", None)
    return [code, doc, err]


def verdicts(out: str):
    """(verdict, type, warning count) per report in a job's stdout, the
    points of a ``toda`` run in order; None when it holds no report.  The
    verdict is the degeneracy reason, its lambda left out, or the kind."""
    try:
        doc = json.loads(out)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    if "nondegenerate" in doc:                     # linear
        return [(doc["degeneracy_reason"] or "NonDegenerate", kinds(doc["type"]), 0)]
    reports = ([doc["report"]] if "report" in doc else
               [point["report"] for point in doc["points"]] if "points" in doc else [])
    return [((r["verdict"]["reason"] or r["verdict"]["kind"]).split("(")[0],
             kinds(r["total_type"]), len(r["warnings"])) for r in reports] or None


def kinds(williamson):
    """(ke, kh, kf) of a report's type, None for none."""
    return williamson and (williamson["ke"], williamson["kh"], williamson["kf"])


def masked(value):
    """A report with every float value replaced by one placeholder."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [masked(v) for v in value]
    return value


def src_lines(tree) -> int:
    """Lines of the Python files under ``tree``'s ``src/`` (``perfbench/run.py``'s count)."""
    total = 0
    for path in sorted(Path(tree, "src").rglob("*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_tree(tree: str, seeds, out_path: str):
    """Child: run every job of ``tree`` and write {key: [code, stdout, stderr,
    mode]}.  The further jobs' inputs come from this file's own tree."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench"),
                    str(ROOT / "tests")]
    import workloads

    results = {}

    def run(key, argv, workdir):
        code, out, err = workloads.run_job(argv)
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "exact"
        results[key] = [code, out.replace(workdir, PLACEHOLDER),
                        err.replace(workdir, PLACEHOLDER), mode]

    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="jobdiff-") as workdir:
                jobs = workloads.build(name, seed, workdir)
                for k, job in enumerate(jobs):
                    run(f"{name}@{seed}#{k} {job.name}", job.argv, workdir)
    with tempfile.TemporaryDirectory(prefix="jobdiff-") as workdir:
        for key, argv in further_jobs(workdir):
            run(key, argv, workdir)
    with open(out_path, "w") as fh:
        json.dump(results, fh)


def spawn(tree: str, seeds, out_path: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    return subprocess.Popen(
        [sys.executable, __file__, "--child", tree, "--out", out_path,
         "--seeds", *map(str, seeds)], cwd=tree, env=env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--child")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.child:
        run_tree(args.child, args.seeds, args.out)
        return 0
    if not args.ref:
        ap.error("REF is required")

    with tempfile.TemporaryDirectory(prefix="jobdiff-") as tmp:
        ref_tree = os.path.join(tmp, "ref")
        os.mkdir(ref_tree)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", ref_tree], input=archive, check=True)
        paths = {"ref": os.path.join(tmp, "ref.json"), "tree": os.path.join(tmp, "tree.json")}
        children = [spawn(ref_tree, args.seeds, paths["ref"]),
                    spawn(str(ROOT), args.seeds, paths["tree"])]
        if any(child.wait() != 0 for child in children):
            print("a child process failed", file=sys.stderr)
            return 2
        with open(paths["ref"]) as fh:
            ref = json.load(fh)
        with open(paths["tree"]) as fh:
            tree = json.load(fh)
        lines = {"ref": src_lines(ref_tree), "tree": src_lines(ROOT)}

    differ = sorted(key for key in ref.keys() | tree.keys() if ref.get(key) != tree.get(key))
    moved = {"verdict, type or warnings": 0, "digits only": 0, "other": 0}
    for key in differ:
        old, new = ref.get(key), tree.get(key)
        if old is None or new is None:
            print(f"{key}: only in {'the tree' if old is None else args.ref}")
            continue
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                 if a != b]
        print(f"{key}: {', '.join(parts)} differ (exit {old[0]} -> {new[0]})")
        was, now = verdicts(old[1]), verdicts(new[1])
        if was is not None and now is not None:
            print(f"    {was} -> {now}")
            moved["verdict, type or warnings" if was != now else
                  "digits only" if masked(json.loads(old[1])) == masked(json.loads(new[1]))
                  else "other"] += 1
    keys = ref.keys() | tree.keys()
    modes = {key: (tree.get(key) or ref[key])[3] for key in keys}
    further = {key for key in keys if key.startswith(FURTHER)}
    print(f"{len(set(differ) - further)} of {len(keys - further)} benchmark jobs differ "
          f"(seeds {' '.join(map(str, args.seeds))}), "
          f"{len(further.intersection(differ))} of {len(further)} further reports differ "
          f"({args.ref} against the working tree)")
    print("by mode: " + ", ".join(
        f"{sum(modes[key] == mode for key in differ)} of "
        f"{sum(m == mode for m in modes.values())} {mode}-mode jobs and reports differ"
        for mode in MODES))
    print(f"{sum(moved.values())} differing reports: " +
          ", ".join(f"{count} in {what}" for what, count in moved.items()))
    failing = [key for key in differ if key in ref and key in tree
               and ref[key][0] == 0 and tree[key][0] != 0]
    print("exit 0 -> nonzero: " + ", ".join(
        f"{sum(modes[key] == mode for key in failing)} {mode}-mode jobs and reports"
        for mode in MODES))
    groups = seed_groups(tree)
    seed_differ = sorted(name for name, group in groups.items()
                         if len({json.dumps(without_provenance(r), sort_keys=True)
                                 for r in group}) > 1)
    for name in seed_differ:
        print(f"{name}: differs across seeds in the working tree")
    print(f"{len(seed_differ)} of {len(groups)} further analyze, linear and jk inputs differ "
          f"across their seeds in the working tree, provenance aside")
    print(f"src/ lines: {lines['ref']} at {args.ref}, {lines['tree']} in the working tree "
          f"({lines['tree'] - lines['ref']:+d})")
    return 1 if differ or seed_differ else 0


if __name__ == "__main__":
    sys.exit(main())
