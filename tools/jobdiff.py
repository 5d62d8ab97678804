"""Compare every benchmark job's output between a git revision and this tree.

    python3 tools/jobdiff.py REF [--seeds 1 2]

Run from anywhere inside the repository.  REF is exported with ``git archive``
into a temporary directory.  For each tree (REF's export and the working tree
this file lives in) one child process builds every job of the four benchmark
workloads at each seed through that tree's ``perfbench/workloads.build`` and
runs it through ``run_job``.  The same child then runs the further reports of
``further_jobs``, which the benchmark does not run, whatever the seeds.
Work-directory paths are replaced by a placeholder, so that only the program's
output is compared.  The jobs whose exit code, stdout or stderr differ are
printed, and counted apart for the benchmark and the further reports; the exit
code is 1 if any differ.  The line count of ``src/`` in both trees is printed
beside them, counted as ``perfbench/run.py`` counts it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
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
      certifies the rank by sampling), in both modes at seeds 0-2;
    - ``linear`` on every catalog argument-shift algebra with its shift
      cocycle, and with the zero cocycle (Ker A is the whole algebra, so the
      report's ``ad_semisimple`` flag is compared where the root
      decomposition stops at ``KernelNotAbelian``), in both modes at seeds
      0-2;
    - ``toda --scan 3 --seed 1`` for n = 2..6, in both modes;
    - the symmetric Toda points a_i = 1, b_i = 0 for n = 2..8, in both modes;
    - ``jk`` on the real canonical pair of every ``workloads.JK_PAIRS`` entry,
      and on the 13-dim pair with (1 +- 2i) Jordan blocks of size 2 under two
      congruences, in both modes at seeds 0-2;
    - the input errors of ``input_error_jobs``, which exit 1 or 2.

    The child has put the tree's ``perfbench`` on ``sys.path``, so the ``jk``
    inputs come from its ``workloads`` helpers.
    """
    import workloads
    from bipencil.catalog import catalog
    from bipencil.io import dump_canonical, pencil_to_json_dict
    from bipencil.jk import JordanBlock, KroneckerBlock, congruent_pair
    from bipencil.liealg import argument_shift_cocycle
    from bipencil.scalars import QQi

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(dump_canonical(doc))
        return path

    jobs = []
    for entry in catalog():
        point = "--point=" + ",".join(map(str, entry.point))
        for rank in (entry.declared_rank, None):
            path = write(f"{entry.name}.rank-{rank}.pencil.json",
                         pencil_to_json_dict(entry.field0, entry.field_inf, rank))
            jobs += [(f"analyze {entry.name} rank={rank} {mode} seed={s}",
                      ["analyze", "--pencil", path, point, "--mode", mode, "--seed", str(s)])
                     for mode in MODES for s in FURTHER_SEEDS]
        if entry.shift is not None:
            alg = write(f"{entry.name}.algebra.json", entry.algebra.to_json_dict())
            cocycles = {"shift": argument_shift_cocycle(entry.algebra, entry.shift).to_json_dict(),
                        "zero": {"dim": entry.algebra.dim, "cocycle": []}}
            for kind, doc in cocycles.items():
                coc = write(f"{entry.name}.{kind}.cocycle.json", doc)
                jobs += [(f"linear {entry.name} {kind} {mode} seed={s}",
                          ["linear", "--algebra", alg, "--cocycle", coc, "--mode", mode,
                           "--seed", str(s)])
                         for mode in MODES for s in FURTHER_SEEDS]
    for mode in MODES:
        jobs += [(f"toda --scan 3 n={n} {mode}",
                  ["toda", "--n", str(n), "--scan", "3", "--seed", "1", "--mode", mode])
                 for n in range(2, 7)]
        jobs += [(f"toda symmetric n={n} {mode}",
                  ["toda", "--n", str(n), "--a", ",".join(["1"] * n),
                   "--b", ",".join(["0"] * n), "--mode", mode])
                 for n in range(2, 9)]
    pairs = [(f"jk{k}", workloads._real_jk_pair(blocks))
             for k, blocks in enumerate(workloads.JK_PAIRS)]
    gaussian = workloads._real_jk_pair([KroneckerBlock(2), JordanBlock(QQi(1, 2), 2)])
    rng = random.Random("jobdiff-jk")
    pairs += [(f"jk-gaussian.{c}",
               congruent_pair(gaussian, workloads._unimodular(gaussian.dim, rng)))
              for c in range(2)]
    for name, p in pairs:
        path = workloads._constant_pencil_file(
            os.path.join(workdir, f"{name}.pencil.json"), p)
        jobs += [(f"jk {name} {mode} seed={s}",
                  ["jk", "--pencil", path, "--point=" + ",".join(["0"] * p.dim),
                   "--mode", mode, "--seed", str(s)])
                 for mode in MODES for s in FURTHER_SEEDS]
    jobs += input_error_jobs(workdir, write)
    return [(FURTHER + key, argv) for key, argv in jobs]


def input_error_jobs(workdir: str, write):
    """(key, argv) of CLI calls that fail on their input: a missing and a
    malformed file for each of ``--pencil``, ``--algebra`` and ``--cocycle``, a
    pencil of dimension 0, bad ``--point`` values, a zero ``--tol``, a
    non-positive Toda a_i, an unknown catalog name, an algebra that breaks the
    Jacobi identity and a form that is not a cocycle."""
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

    return [
        ("error pencil missing", analyze(missing)),
        ("error pencil malformed", analyze(malformed)),
        ("error pencil dim 0", analyze(write("errors.dim0.pencil.json",
                                             {"dim": 0, "P0": [], "Pinf": []}), "0")),
        ("error algebra missing", linear(missing, cocycle)),
        ("error algebra malformed", linear(malformed, cocycle)),
        ("error cocycle missing", linear(algebra, missing)),
        ("error cocycle malformed", linear(algebra, malformed)),
        ("error point arity", analyze(pencil, "0,0")),
        ("error point empty field", analyze(pencil, "0,,0")),
        ("error point zero denominator", analyze(pencil, "1/0,0,0")),
        ("error float tol 0", analyze(pencil, "0,0,0", "--mode", "float", "--tol", "0")),
        ("error toda a_i = 0", ["toda", "--n", "3", "--a", "1,0,1", "--b", "0,0,0"]),
        ("error catalog unknown name", ["catalog", "--emit", "nosuch", workdir]),
        ("error algebra not Jacobi",
         linear(write("errors.jacobi.algebra.json", not_jacobi), cocycle)),
        ("error form not a cocycle",
         linear(write("errors.so3r.algebra.json", so3_plus_r),
                write("errors.so3r.cocycle.json",
                      {"dim": 4, "cocycle": [{"i": 1, "j": 4, "c": "1"}]}))),
    ]


def src_lines(tree) -> int:
    """Lines of the Python files under ``tree``'s ``src/`` (``perfbench/run.py``'s count)."""
    total = 0
    for path in sorted(Path(tree, "src").rglob("*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_tree(tree: str, seeds, out_path: str):
    """Child: run every job of ``tree`` and write {key: [code, stdout, stderr]}."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads

    results = {}

    def run(key, argv, workdir):
        code, out, err = workloads.run_job(argv)
        results[key] = [code, out.replace(workdir, PLACEHOLDER),
                        err.replace(workdir, PLACEHOLDER)]

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
    for key in differ:
        old, new = ref.get(key), tree.get(key)
        if old is None or new is None:
            print(f"{key}: only in {'the tree' if old is None else args.ref}")
            continue
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                 if a != b]
        print(f"{key}: {', '.join(parts)} differ (exit {old[0]} -> {new[0]})")
    keys = ref.keys() | tree.keys()
    further = {key for key in keys if key.startswith(FURTHER)}
    print(f"{len(set(differ) - further)} of {len(keys - further)} benchmark jobs differ "
          f"(seeds {' '.join(map(str, args.seeds))}), "
          f"{len(further.intersection(differ))} of {len(further)} further reports differ "
          f"({args.ref} against the working tree)")
    print(f"src/ lines: {lines['ref']} at {args.ref}, {lines['tree']} in the working tree "
          f"({lines['tree'] - lines['ref']:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
