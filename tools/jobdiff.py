"""Compare every benchmark job's output between a git revision and this tree.

    python3 tools/jobdiff.py REF [--seeds 1 2]

Run from anywhere inside the repository.  REF is exported with ``git archive``
into a temporary directory.  For each tree (REF's export and the working tree
this file lives in) one child process builds every job of the four benchmark
workloads at each seed through that tree's ``perfbench/workloads.build`` and
runs it through ``run_job``.  Work-directory paths are replaced by a
placeholder, so that only the program's output is compared.  The jobs whose
exit code, stdout or stderr differ are printed; the exit code is 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("singular-exact", "regular-exact", "float-sweep", "jk-congruent")
PLACEHOLDER = "<workdir>"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(tree: str, seeds, out_path: str):
    """Child: run every job of ``tree`` and write {key: [code, stdout, stderr]}."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads

    results = {}
    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="jobdiff-") as workdir:
                jobs = workloads.build(name, seed, workdir)
                for k, job in enumerate(jobs):
                    code, out, err = workloads.run_job(job.argv)
                    results[f"{name}@{seed}#{k} {job.name}"] = [
                        code, out.replace(workdir, PLACEHOLDER),
                        err.replace(workdir, PLACEHOLDER)]
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

    differ = sorted(key for key in ref.keys() | tree.keys() if ref.get(key) != tree.get(key))
    for key in differ:
        old, new = ref.get(key), tree.get(key)
        if old is None or new is None:
            print(f"{key}: only in {'the tree' if old is None else args.ref}")
            continue
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                 if a != b]
        print(f"{key}: {', '.join(parts)} differ (exit {old[0]} -> {new[0]})")
    print(f"{len(differ)} of {len(ref.keys() | tree.keys())} jobs differ "
          f"({args.ref} against the working tree, seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
