"""Which code of ``src/bipencil`` no CLI job reaches.

    python3 tools/reach.py

Run from anywhere inside the repository.  Every job that ``tools/jobdiff.py``
compares by default is run in this one process, on the working tree: the
four benchmark workloads at seeds 1 and 2 (``SEEDS``), built by
``perfbench/workloads.build``, then the further reports of
``jobdiff.further_jobs``, each through ``workloads.run_job``.  Each job runs under ``sys.settrace``, which traces
lines in the files of ``src/bipencil`` alone; so does the first import of
each module of the package, so that module and class bodies count, but not
the building of the jobs' inputs, which all come first; the package's
``functools`` caches are emptied after it.  For each file the functions
never entered are printed with their first lines, then the statement lines
never run outside them, as ranges.  A statement line is one that some
instruction of the compiled file maps to.  The output is for reading: the
exit code is 0 whatever was reached.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = str(ROOT / "src" / "bipencil") + os.sep
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (1, 2)


class Reach:
    """The lines run and the code objects entered in the package's files."""

    def __init__(self):
        self.lines = {}         # filename -> set of line numbers run
        self.entered = set()    # (filename, first line, name) of code entered

    def trace(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        run = self.lines.setdefault(code.co_filename, set())
        run.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                run.add(frame.f_lineno)
            return local

        return local


def code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def statement_lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line}


def ranges(lines) -> str:
    """Line numbers as comma-separated runs, 12-14 for 12, 13 and 14."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(reach: Reach) -> None:
    totals = [0, 0, 0, 0]
    for path in sorted(Path(PACKAGE).glob("*.py")):
        filename = str(path)
        module = compile(path.read_text(), filename, "exec")
        functions = [c for c in code_objects(module)
                     if c.co_name == "<lambda>" or not c.co_name.startswith("<")]
        unentered = [c for c in functions
                     if (filename, c.co_firstlineno, c.co_name) not in reach.entered]
        inside = set().union(*(statement_lines(c) for c in unentered))
        lines = set().union(*(statement_lines(c) for c in code_objects(module)))
        unrun = lines - reach.lines.get(filename, set()) - inside
        totals = [t + n for t, n in zip(totals, (len(unentered), len(functions),
                                                 len(unrun | inside), len(lines)))]
        print(f"{path.relative_to(ROOT)}: {len(unentered)} of {len(functions)} functions never "
              f"entered, {len(unrun | inside)} of {len(lines)} statement lines never run")
        if unentered:
            print("  never entered: " + ", ".join(
                f"{getattr(c, 'co_qualname', c.co_name)} ({c.co_firstlineno})"
                for c in unentered))
        if unrun:
            print(f"  never run, outside those: {ranges(unrun)}")
    print(f"total: {totals[0]} of {totals[1]} functions never entered, "
          f"{totals[2]} of {totals[3]} statement lines never run")


def main() -> int:
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests"), str(HERE)]
    reach = Reach()

    def traced(call, *args):
        sys.settrace(reach.trace)
        try:
            return call(*args)
        finally:
            sys.settrace(None)

    for path in sorted(Path(PACKAGE).glob("*.py")):
        traced(importlib.import_module,
               "bipencil" if path.stem == "__init__" else f"bipencil.{path.stem}")
    import jobdiff
    import workloads

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        argvs = []
        for name in jobdiff.WORKLOADS:
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{name}-{seed}")
                os.mkdir(workdir)
                argvs += [job.argv for job in workloads.build(name, seed, workdir)]
        argvs += [argv for _key, argv in jobdiff.further_jobs(tmp)]
        # a cache filled while the inputs were built is emptied, so that the
        # first job to need it fills it again, traced; a type test, since
        # reading an attribute of the lazily imported numpy would load it
        for name, module in list(sys.modules.items()):
            if name.startswith("bipencil"):
                for value in vars(module).values():
                    if isinstance(value, functools._lru_cache_wrapper):
                        value.cache_clear()
        for argv in argvs:
            traced(workloads.run_job, argv)
    print(f"{len(argvs)} jobs run (benchmark seeds {' '.join(map(str, SEEDS))} "
          f"and the further reports)")
    report(reach)
    return 0


if __name__ == "__main__":
    sys.exit(main())
