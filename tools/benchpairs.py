"""Alternating benchmark runs of a git revision and this tree, side by side.

    python3 tools/benchpairs.py REF --workload regular-exact --seed 2 --pairs 10 [--size smoke]

Run from anywhere inside the repository.  REF is checked out into a temporary
``git worktree``, which is removed at the end.  Each pair runs
``perfbench/run.py --trace 0`` once in REF's worktree and once in the working
tree, each on its own ``perfbench/`` and ``src/``, one run at a time; the
order swaps from pair to pair, REF first in the first, so that a drift of
the machine's speed falls on both alike.  Each run's line is printed as it
ends.  Then, for each end-to-end metric of the working tree's
``BENCHMARK.json`` and for the raw times ``raw_wall_s`` and ``setup_raw_s``
beside the scaled ones, the table gives REF's and the tree's medians with
their quartiles, in how many pairs the tree's run was better than REF's, and
whether the medians differ by more than REF's quartile distance.  The exit
code is 1, at once, when a run fails or reports an incorrect answer.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# raw times that perfbench/run.py prints beside the scaled end-to-end ones
RAW = [{"name": "raw_wall_s", "unit": "s", "better": "lower"},
       {"name": "setup_raw_s", "unit": "s", "better": "lower"}]


def run_once(tree, args):
    """{metric: value} of one ``perfbench/run.py`` run in ``tree``, or None
    when it fails or is incorrect, its output then printed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0",
            "--size", args.size]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


def quartiles(values):
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def table(metrics, runs):
    """The summary lines: per metric, REF's and the tree's median [quartiles],
    the tree's wins and whether the medians differ by more than REF's IQR."""
    out = [f"{'metric':<18} {'REF median [q1, q3]':<38} {'tree median [q1, q3]':<38} "
           f"{'tree better':<12} beyond REF's IQR"]
    for m in metrics:
        ref = [pair["ref"][m["name"]] for pair in runs]
        tree = [pair["tree"][m["name"]] for pair in runs]
        (r1, r2, r3), (t1, t2, t3) = quartiles(ref), quartiles(tree)
        sign = -1 if m["better"] == "lower" else 1
        wins = sum(sign * (t - r) > 0 for r, t in zip(ref, tree))
        beyond = "yes" if abs(t2 - r2) > r3 - r1 else "no"
        out.append(f"{m['name']:<18} {f'{r2:.5g} [{r1:.5g}, {r3:.5g}]':<38} "
                   f"{f'{t2:.5g} [{t1:.5g}, {t3:.5g}]':<38} "
                   f"{f'{wins}/{len(runs)}':<12} {beyond}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        ref_tree = str(Path(tmp, "ref"))
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        ref_tree, args.ref], check=True)
        try:
            runs = []
            for k in range(args.pairs):
                pair = {}
                for side in (("ref", "tree") if k % 2 == 0 else ("tree", "ref")):
                    values = run_once(ref_tree if side == "ref" else ROOT, args)
                    if values is None:
                        print(f"pair {k + 1}: the {side} run failed or was incorrect",
                              file=sys.stderr)
                        return 1
                    pair[side] = values
                    print(f"pair {k + 1} {side:<4} wall_s {values['wall_s']:.5g} "
                          f"raw_wall_s {values['raw_wall_s']:.5g}", flush=True)
                runs.append(pair)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", ref_tree],
                           check=False)
    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs, "
          f"{args.ref} (REF) against the working tree")
    print("\n".join(table(spec["end_to_end"] + RAW, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
