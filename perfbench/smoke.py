"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with ``--size smoke`` (one catalog entry, Toda n=2, one
JK pair) for one second, traced and untraced, and checks that each metric of
BENCHMARK.json is printed by name with its unit, both as a ``name value
unit`` line and in the final JSON object.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metric names {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
        printed = [ln.split() for ln in lines[:-1] if ln.startswith(m["name"] + " ")]
        if not any(len(p) == 3 and p[2] == m["unit"] for p in printed):
            problems.append(f"{m['name']}: no line '{m['name']} <value> {m['unit']}'")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
