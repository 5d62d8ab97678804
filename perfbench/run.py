"""Benchmark of the bipencil CLI: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload singular-exact --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program runs from ``src`` in fresh child
processes, one at a time, with BLAS threads capped at one.  Set-up (import of
``bipencil.cli`` and building the inputs) is timed in several children and
reported as a median; then one child runs the workload as a closed loop with
one client, for the number of whole passes over the jobs that takes about
``--seconds`` at the reference speed (see speed.py).  The number of passes
depends only on the workload and ``--seconds``, so a seed always gives the same
jobs.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are printed, with ``--trace 1`` the per-layer ones from a
separate traced run.  Each metric is printed as a line ``name value unit``;
the last line is one JSON object with keys correct, attempted, failed and
metrics.  A wrong answer on an exact workload makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The default seed for runs, and a second seed kept aside for checking claims.
DEFAULT_SEED = 1
CLAIM_SEED = 2
SETUP_SAMPLES = 3          # set-up time is the median of this many fresh processes
TIME_LIMIT_S = 170.0       # whole invocation, all children included
# Nominal seconds of one pass over the jobs at the reference speed, about the
# median over seeds of ``wall_s`` at the baseline.  Constants, so that the
# number of passes does not depend on the machine or on the program's speed.
PASS_S = {"singular-exact": 7.5, "regular-exact": 8.0, "float-sweep": 9.0,
          "jk-congruent": 7.0}
WORKLOADS = tuple(PASS_S)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline: float) -> dict:
    """Run worker.py with ``args``; returns its JSON document or exits."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        print(f"worker {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def context() -> dict:
    import numpy
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: one catalog entry, Toda n=2, one JK pair")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    # A traced run makes as many untraced passes as traced ones.
    budget = args.seconds / 2 if args.trace else args.seconds
    n_passes = max(1, round(budget / PASS_S[args.workload])) if args.size == "full" else 1

    setups = [run_child(["--phase", "setup", *common], deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    doc = run_child(["--phase", "run", *common, "--passes", str(n_passes),
                     "--trace", str(args.trace)], deadline)
    setups.append(doc)
    values = dict(doc["metrics"], setup_s=statistics.median(d["setup_s"] for d in setups))
    doc["lines"].append(f"setup_raw_s {statistics.median(d['setup_raw_s'] for d in setups)} s")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for line in doc["lines"]:
        print(line)
    for err in doc["errors"]:
        print(f"WRONG {err}")
    print("context " + json.dumps(dict(context(), workload=args.workload, seed=args.seed,
                                       default_seed=DEFAULT_SEED, claim_seed=CLAIM_SEED)))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    correct = not doc["errors"]
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
