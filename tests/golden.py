"""Golden fixture generation shared by the catalog tests and regeneration runs.

Run ``python tests/golden.py`` to rewrite tests/fixtures; the test suite
regenerates the same documents in memory and diffs byte-for-byte.
"""

from __future__ import annotations

import os

from bipencil import __version__
from bipencil.analyzer import analyze_point
from bipencil.catalog import catalog
from bipencil.io import catalog_entry_to_json_dict, dump_canonical, report_document
from bipencil.scalars import EXACT

FIXTURE_SEED = 11


def fixture_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def pencil_text(entry) -> str:
    return dump_canonical(catalog_entry_to_json_dict(entry))


def report_text(entry) -> str:
    report = analyze_point(entry.field0, entry.field_inf, entry.point, mode=EXACT,
                           declared_rank=entry.declared_rank)
    doc = report_document(report, {
        "library_version": __version__, "mode": "exact", "tolerance": None,
        "seed": FIXTURE_SEED, "pencil": entry.name,
        "point": [str(x) for x in entry.point]})
    return dump_canonical(doc)


def regenerate() -> None:
    out = fixture_dir()
    os.makedirs(out, exist_ok=True)
    for entry in catalog():
        with open(os.path.join(out, f"{entry.name}.pencil.json"), "w") as fh:
            fh.write(pencil_text(entry))
        with open(os.path.join(out, f"{entry.name}.report.json"), "w") as fh:
            fh.write(report_text(entry))
    print(f"wrote fixtures for {len(catalog())} entries to {out}")


if __name__ == "__main__":
    regenerate()
