import json
import os
from dataclasses import astuple
from fractions import Fraction

import pytest

from bipencil.analyzer import analyze_point
from bipencil.catalog import catalog, catalog_by_name
from bipencil.exactlin import mat_vec
from bipencil.io import load_pencil_file, pencil_from_json_dict, pencil_to_json_dict
from bipencil.scalars import EXACT
from bipencil.tensorfield import evaluate_pencil

import golden
from oracles.fields import casimir_family, fields_compatible, gradient
from oracles.sampling import SamplingPolicy


@pytest.fixture(scope="module")
def entries():
    return catalog()


def collect_blocks(report):
    out = {}
    for pl in report.per_lambda:
        if pl.blocks:
            for k, v in pl.blocks.counts.items():
                if v:
                    out[k] = out.get(k, 0) + v
    return out


def test_catalog_size_and_names(entries):
    assert len(entries) >= 11
    names = {e.name for e in entries}
    for required in ("so3_shift", "sl2_shift_pos", "sl2_shift_neg", "sl2_shift_null",
                     "so31_shift", "so4_shift", "diamond_shift", "diamond_h_shift",
                     "diamond_C_shift", "bad_example"):
        assert required in names


def test_catalog_pencils_are_compatible_pairs(entries):
    for e in entries:
        assert fields_compatible(e.field0, e.field_inf), e.name


def test_catalog_casimirs_annihilate(entries):
    sp = SamplingPolicy(14)
    for e in entries:
        for q in e.casimirs:
            for _ in range(3):
                pt = sp.rational_point(e.field0.dim, 4, 2)
                grad = [g.eval(pt) for g in gradient(q)]
                A0 = evaluate_pencil(e.field0, e.field_inf, pt).A0
                assert all(v == 0 for v in mat_vec(A0, grad)), e.name


def test_catalog_shifted_families_annihilate(entries):
    sp = SamplingPolicy(15)
    for e in entries:
        if e.shift is None:
            continue
        for lam in (Fraction(1, 2), Fraction(-3)):
            for q in casimir_family(e, lam):
                pt = sp.rational_point(e.field0.dim, 3, 2)
                M = evaluate_pencil(e.field0, e.field_inf, pt).matrix_at(lam)
                grad = [g.eval(pt) for g in gradient(q)]
                assert all(v == 0 for v in mat_vec(M, grad)), (e.name, lam)


def test_catalog_golden_exact(entries):
    for e in entries:
        rep = analyze_point(e.field0, e.field_inf, e.point,
                            mode=EXACT, declared_rank=e.declared_rank)
        assert rep.verdict.kind == e.expected.verdict, e.name
        if e.expected.type is not None:
            assert astuple(rep.total_type) == e.expected.type, e.name
            assert collect_blocks(rep) == e.expected.blocks, e.name
        if e.expected.degeneracy_code:
            assert rep.verdict.reason.startswith(e.expected.degeneracy_code), e.name
        assert [s.lam for s in rep.spectrum.entries] == list(e.expected.spectrum), e.name


def test_pencil_file_round_trip(entries):
    for e in entries:
        doc = pencil_to_json_dict(e.field0, e.field_inf, e.declared_rank,
                                  {"name": e.name})
        f0, finf, declared, meta = pencil_from_json_dict(doc)
        doc2 = pencil_to_json_dict(f0, finf, declared, meta)
        assert doc == doc2, e.name


def test_golden_fixture_files_up_to_date(entries):
    # CI regenerates the documents and diffs byte-for-byte against the files
    fd = golden.fixture_dir()
    for e in entries:
        with open(os.path.join(fd, f"{e.name}.pencil.json")) as fh:
            assert fh.read() == golden.pencil_text(e), f"{e.name} pencil fixture is stale"
        with open(os.path.join(fd, f"{e.name}.report.json")) as fh:
            assert fh.read() == golden.report_text(e), f"{e.name} report fixture is stale"


def test_fixture_reports_parse_and_match_summary(entries):
    fd = golden.fixture_dir()
    for e in entries:
        with open(os.path.join(fd, f"{e.name}.report.json")) as fh:
            doc = json.load(fh)
        assert doc["report"]["verdict"]["kind"] == e.expected.verdict
        if e.expected.type is not None:
            ke, kh, kf = e.expected.type
            assert doc["report"]["total_type"] == {"ke": ke, "kh": kh, "kf": kf}
