"""Benchmark child process: set up one workload, run it, check its outputs.

``run.py`` starts this file in a fresh single-threaded process.  With
``--phase setup`` it only imports the program and builds the inputs; with
``--phase run`` it then runs the jobs as a closed loop with one client, each
job one in-process ``bipencil.cli.main(argv)`` call with its output captured.
It prints one JSON document as its last line of standard output.

Times are scaled to a reference machine speed (see ``speed.py``); the raw
seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from speed import Meter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


class Run(NamedTuple):
    """One job of one pass."""
    code: int
    stdout: str
    stderr: str
    raw_s: float          # wall seconds, probes of the machine speed included
    net_s: float          # wall seconds without the probes
    scaled_s: float       # net_s at the reference speed


def setup(workload: str, seed: int, size: str, workdir: str):
    """Import the program from ``src`` and build the inputs.

    Returns the ``workloads`` module, which imports ``bipencil.cli``, and the jobs.
    """
    sys.path.insert(0, str(SRC))
    import bipencil
    if not Path(bipencil.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bipencil was imported from {bipencil.__file__}, not from {SRC}")
    import workloads
    return workloads, workloads.build(workload, seed, workdir, size)


def warm_up(wl, jobs):
    """Run the jobs marked ``warmup`` once each, untimed and unchecked."""
    for job in jobs:
        if job.warmup:
            wl.run_job(job.argv)


def run_passes(wl, jobs, n_passes: int, main=None):
    """Closed loop: ``n_passes`` whole passes over the job list.

    Returns one list of ``Run`` per pass, in job order.
    """
    main = main or wl.cli_main
    passes = []
    with Meter() as meter:
        for _ in range(n_passes):
            results = []
            for job in jobs:
                output, *secs = meter.measure(wl.run_job, job.argv, main)
                results.append(Run(*output, *secs))
            passes.append(results)
    return passes


def net_wall(results) -> float:
    return sum(r.net_s for r in results)


def scaled_wall(results) -> float:
    return sum(r.scaled_s for r in results)


def check(wl, jobs, passes, errors, lines):
    """Outcome per job, against references computed now, untimed.

    Records into ``errors`` anything that makes the run wrong: a wrong answer
    in exact mode, or output that differs between passes.  A job that exits
    nonzero is a failed job, not a wrong one; it is listed in ``lines``.
    """
    outcomes = []
    for j, job in enumerate(jobs):
        runs = [results[j] for results in passes]
        if any(r[:2] != runs[0][:2] for r in runs):
            errors.append(f"{job.name}: output differs between passes")
        try:
            if job.reference is not None:
                job.expect = job.reference()
            outcome = wl.judge(job, runs[0].code, runs[0].stdout, runs[0].stderr)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{job.name}: {exc!r}")
            continue
        if not outcome.ok:
            lines.append(f"failed {job.name}: {outcome.detail}")
        elif job.mode == "exact" and not outcome.agree:
            errors.append(f"{job.name}: {outcome.detail}")
        outcomes.append(outcome)
    return outcomes


def end_to_end(jobs, passes, outcomes):
    n_pass = len(passes)
    attempted = len(jobs) * n_pass
    failed = sum(not o.ok for o in outcomes) * n_pass
    agree = sum(o.agree for o in outcomes) * n_pass
    silent = sum(o.ok and not o.agree and not o.warned for o in outcomes) * n_pass
    metrics = {
        "wall_s": statistics.median(scaled_wall(results) for results in passes),
        "largest_job_s": statistics.fmean(r.scaled_s for results in passes
                                          for job, r in zip(jobs, results) if job.largest),
        "ok_rate": 1 - failed / attempted,
        "verdict_agree": agree / attempted,
        "flagged_or_agree": 1 - silent / attempted,
    }
    # Printed for reading, not gated: fail_rate and silent_disagree are 0 on
    # the exact workloads, and the median job falls between job sizes, so it
    # jumps from one seed to the next.
    extra = {"fail_rate": (failed / attempted, "share"),
             "silent_disagree": (silent / attempted, "share"),
             "job_p50_s": (statistics.median(r.scaled_s for results in passes
                                             for r in results), "s"),
             "raw_wall_s": (statistics.median(net_wall(results) for results in passes), "s"),
             "speed": (sum(scaled_wall(results) for results in passes)
                       / sum(net_wall(results) for results in passes), "ratio"),
             "passes": (n_pass, "count"), "jobs_per_pass": (len(jobs), "count")}
    return attempted, failed, metrics, extra


def traced_run(wl, jobs, n_passes, errors, trace_path):
    """Untraced passes, then as many traced passes; returns the per-layer metrics."""
    import tracer as tracing

    warm_up(wl, jobs)
    untraced = run_passes(wl, jobs, n_passes)
    tr = tracing.Tracer()
    tr.install()
    root = tr.wrap(tracing.ROOT, wl.cli_main)

    def main(argv):
        tr.job += 1               # job ids count from 0 over all traced passes
        return root(argv)

    try:
        traced = run_passes(wl, jobs, n_passes, main)
    finally:
        tr.uninstall()
    tr.dump(trace_path, [job.name for job in jobs])
    lines = []
    outcomes = check(wl, jobs, untraced + traced, errors, lines)
    warnings = 0
    for job, run in zip(jobs, traced[0]):
        if run.code == 0:
            warnings += len(wl.summarize(job.kind, run.stdout)[1])
    exact_jobs = {p * len(jobs) + j for p in range(len(traced))
                  for j, job in enumerate(jobs) if job.mode == "exact"}
    roots = [i for i, s in enumerate(tr.spans) if s[tracing.PARENT] < 0]
    per_pass = []
    for p, results in enumerate(traced):
        wall = sum(r.raw_s for r in results)
        first = roots[p * len(jobs)]
        stop = roots[(p + 1) * len(jobs)] if p + 1 < len(traced) else len(tr.spans)
        m, job_s, self_s = tracing.pass_metrics(tr.spans[first:stop], first, exact_jobs,
                                                len(jobs), warnings)
        if abs(self_s - job_s) > 1e-6 * max(job_s, 1.0) or job_s > wall:
            errors.append(f"trace pass {p}: self times {self_s:.6f} s and job spans "
                          f"{job_s:.6f} s do not fit the job times {wall:.6f} s")
        lines.append(f"trace pass {p}: self times {self_s:.4f} s + harness "
                     f"{wall - job_s:.4f} s = traced job times {wall:.4f} s")
        per_pass.append(m)
    metrics = tracing.combine_passes(per_pass)
    # Scaled times, so that a change of machine speed between the untraced
    # and the traced passes does not count as overhead.
    untraced_wall = statistics.median(scaled_wall(results) for results in untraced)
    traced_wall = statistics.median(scaled_wall(results) for results in traced)
    metrics["trace.overhead"] = traced_wall / untraced_wall
    lines.append(f"scaled pass {untraced_wall:.4f} s untraced, {traced_wall:.4f} s traced; "
                 f"overhead {metrics['trace.overhead']:.4f}")
    attempted, failed, _, _ = end_to_end(jobs, untraced + traced, outcomes)
    return attempted, failed, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        with Meter() as meter:
            (wl, jobs), _, setup_raw, setup_scaled = meter.measure(
                setup, args.workload, args.seed, args.size, workdir)
        doc = {"setup_s": setup_scaled, "setup_raw_s": setup_raw}
        if args.phase == "run":
            errors = []
            if args.trace:
                path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                attempted, failed, metrics, lines = traced_run(
                    wl, jobs, args.passes, errors, path)
                lines.append(f"spans written to {path.relative_to(ROOT)}")
            else:
                warm_up(wl, jobs)
                passes = run_passes(wl, jobs, args.passes)
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                lines = []
                outcomes = check(wl, jobs, passes, errors, lines)
                attempted, failed, metrics, extra = end_to_end(jobs, passes, outcomes)
                metrics["peak_rss_mb"] = peak_kb / 1024
                lines += [f"{k} {v} {unit}" for k, (v, unit) in extra.items()]
            doc.update(attempted=attempted, failed=failed, metrics=metrics,
                       errors=errors, lines=lines)
        print(json.dumps(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
