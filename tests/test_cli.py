import json
import os
import subprocess
import sys

import pytest

from bipencil.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def so3_file(tmp_path, capsys):
    code, out, err = run_cli(["catalog", "--emit", "so3_shift", str(tmp_path)], capsys)
    assert code == 0, err
    return out.strip()


def test_catalog_list(capsys):
    code, out, err = run_cli(["catalog", "--list"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) >= 11


def test_catalog_emit_round_trip(so3_file, tmp_path, capsys):
    with open(so3_file) as fh:
        text = fh.read()
    doc = json.loads(text)
    assert doc["dim"] == 3 and doc["declared_rank"] == 2
    # emit -> parse -> emit is byte-identical
    from bipencil.io import dump_canonical, pencil_from_json_dict, pencil_to_json_dict
    f0, finf, declared, meta = pencil_from_json_dict(doc)
    assert dump_canonical(pencil_to_json_dict(f0, finf, declared, meta)) == text


def test_catalog_emit_unknown_name(tmp_path, capsys):
    code, out, err = run_cli(["catalog", "--emit", "nope", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("argv", [["--emit", "so3_shift", "DIR", "--out", "DIR/missing/y"],
                                  ["--list", "--mode", "float"]])
def test_catalog_takes_no_analysis_options(tmp_path, argv, capsys):
    # --mode, --tol, --seed and --out belong to the analysis commands only
    argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(["catalog"] + argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "input"
    assert list(tmp_path.iterdir()) == []


def test_analyze_so3(so3_file, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0,0"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["report"]["verdict"]["kind"] == "NonDegenerate"
    assert doc["report"]["total_type"] == {"ke": 1, "kh": 0, "kf": 0}


def test_analyze_regular_point(so3_file, capsys):
    code, out, _ = run_cli(["analyze", "--pencil", so3_file, "--point", "1,1/2,-2"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["verdict"]["kind"] == "Regular"


def test_analyze_wrong_arity(so3_file, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0"], capsys)
    assert code == 1
    assert json.loads(err)["position"] == "--point"


def test_toda_wrong_arity_names_the_option(capsys):
    code, out, err = run_cli(["toda", "--n", "3", "--a", "1,1", "--b", "0,0,0"], capsys)
    assert_input_error(code, out, err, "--a")
    assert json.loads(err)["message"] == "--a has 2 values, expected 3"


def test_analyze_malformed_pencil(tmp_path, capsys):
    bad = tmp_path / "bad.pencil.json"
    bad.write_text(json.dumps({
        "dim": 2, "P0": [{"i": 2, "j": 1, "poly": []}], "Pinf": []}))
    code, out, err = run_cli(["analyze", "--pencil", str(bad), "--point", "0,0"], capsys)
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "input" and "P0[0]" in doc["position"]


def test_analyze_determinism(so3_file, tmp_path, capsys):
    outs = []
    for k in range(2):
        path = tmp_path / f"r{k}.json"
        code, _, _ = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0,0",
                              "--seed", "5", "--out", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_toda_explicit_singular(capsys):
    code, out, err = run_cli(["toda", "--n", "2", "--a", "1,1", "--b", "0,0"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    point = doc["points"][0]
    assert point["report"]["verdict"]["kind"] == "NonDegenerate"
    assert point["report"]["total_type"] == {"ke": 1, "kh": 0, "kf": 0}
    assert point["oracle_agrees"] and doc["summary"]["all_oracle_agree"]
    assert point["lax_oracle"][0]["which"] == "antiperiodic"


def test_toda_random_regular(capsys):
    code, out, _ = run_cli(["toda", "--n", "3", "--random", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["verdicts"] == ["Regular"]
    assert doc["points"][0]["lax_oracle"] == []


def test_toda_scan(capsys):
    code, out, _ = run_cli(["toda", "--n", "2", "--scan", "3", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["count"] == 3 and doc["summary"]["all_oracle_agree"]


def test_toda_rejects_nonpositive_a(capsys):
    for n, a, b in ((2, "1,-1", "0,0"), (3, "1,0,1", "0,0,0")):
        code, out, err = run_cli(["toda", "--n", str(n), "--a", a, "--b", b], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "refused", "message": "phase space requires a_i > 0"}


def assert_input_error(code, out, err, position):
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and doc["position"] == position


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_analyze_rejects_bad_tolerance(so3_file, tol, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0,0",
                              "--mode", "float", f"--tol={tol}"], capsys)
    assert_input_error(code, out, err, "--tol")


def test_toda_rejects_negative_scan(capsys):
    code, out, err = run_cli(["toda", "--n", "3", "--scan=-2"], capsys)
    assert_input_error(code, out, err, "--scan")


def test_toda_rejects_bad_tolerance(capsys):
    code, out, err = run_cli(["toda", "--n", "2", "--random", "--mode", "float",
                              "--tol", "nan"], capsys)
    assert_input_error(code, out, err, "--tol")


def test_jk_rejects_bad_tolerance_in_exact_mode(so3_file, capsys):
    # --tol is checked whatever the mode
    code, out, err = run_cli(["jk", "--pencil", so3_file, "--point", "0,0,0",
                              "--tol=-1"], capsys)
    assert_input_error(code, out, err, "--tol")


def test_jk_command(so3_file, tmp_path, capsys):
    code, out, err = run_cli(["jk", "--pencil", so3_file, "--point", "0,0,0"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["invariants"] == {"corank": 1, "kronecker": [0], "jordan": {"0": [1]}}


def test_linear_command(tmp_path, capsys):
    from bipencil import algebras
    from bipencil.liealg import argument_shift_cocycle
    from fractions import Fraction
    D = algebras.diamond()
    alg_path = tmp_path / "alg.json"
    coc_path = tmp_path / "coc.json"
    alg_path.write_text(json.dumps(D.to_json_dict()))
    A = argument_shift_cocycle(D, [Fraction(0), Fraction(0), Fraction(1), Fraction(0)])
    coc_path.write_text(json.dumps(A.to_json_dict()))
    code, out, err = run_cli(["linear", "--algebra", str(alg_path),
                              "--cocycle", str(coc_path)], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["nondegenerate"] is True
    assert doc["type"] == {"ke": 1, "kh": 0, "kf": 0}
    assert doc["blocks"]["counts"]["diamond"] == 1
    assert doc["regular"] is True
    assert doc["kernel"]["abelian"] and doc["kernel"]["ad_semisimple"]


@pytest.mark.parametrize("name", ["so22_shift_saddle_center", "so22_shift_saddle_saddle"])
def test_float_linear_report_has_no_negative_zero(name, tmp_path, capsys):
    # a float part that comes out as -0.0 is printed as 0.0
    from bipencil.catalog import catalog_by_name
    from bipencil.liealg import argument_shift_cocycle
    entry = catalog_by_name()[name]
    argv = write_linear_inputs(tmp_path, entry.algebra.to_json_dict(),
                               argument_shift_cocycle(entry.algebra, entry.shift).to_json_dict())
    code, out, err = run_cli(argv + ["--mode", "float"], capsys)
    assert code == 0, err
    assert json.loads(out)["nondegenerate"] is True
    assert "-0.0" not in out


def test_linear_command_rejects_bad_jacobi(tmp_path, capsys):
    alg_path = tmp_path / "alg.json"
    coc_path = tmp_path / "coc.json"
    # [e1,e2] = e3 with [e2,e3] = e2 violates Jacobi on (e1, e2, e3)
    alg_path.write_text(json.dumps({
        "dim": 3,
        "structure": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                      {"i": 2, "j": 3, "k": 2, "c": "1"}]}))
    coc_path.write_text(json.dumps({"dim": 3, "cocycle": []}))
    code, out, err = run_cli(["linear", "--algebra", str(alg_path),
                              "--cocycle", str(coc_path)], capsys)
    assert code == 1
    doc = json.loads(err)
    assert "Jacobi" in doc["message"]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bipencil.cli", "--version"],
                          capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0
    assert "bipencil" in proc.stdout


def test_list_values_may_start_with_minus(so3_file, capsys):
    # argparse takes "-1,0,1" for an option unless it is attached with "="
    code, out, err = run_cli(["toda", "--n", "3", "--a", "1,1,1", "--b", "-1,0,1"], capsys)
    assert code == 0, err
    assert json.loads(out)["points"][0]["b"] == ["-1", "0", "1"]
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "-1/2,0,0"],
                             capsys)
    assert code == 0, err
    assert json.loads(out)["provenance"]["point"] == ["-1/2", "0", "0"]


def test_usage_error_is_an_input_error(so3_file, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file], capsys)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "--point" in doc["message"]


@pytest.mark.parametrize("point", ["0,,0,0", "0,0,0,"])
def test_empty_coordinate_is_rejected(so3_file, point, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", point], capsys)
    assert_input_error(code, out, err, "--point")


def test_toda_empty_coordinate_is_rejected_at_its_option(capsys):
    code, out, err = run_cli(["toda", "--n", "2", "--a", "1,1", "--b", "0,,"], capsys)
    assert_input_error(code, out, err, "--b")


def write_linear_inputs(tmp_path, algebra_doc, cocycle_doc):
    alg_path, coc_path = tmp_path / "alg.json", tmp_path / "coc.json"
    alg_path.write_text(json.dumps(algebra_doc))
    coc_path.write_text(json.dumps(cocycle_doc))
    return ["linear", "--algebra", str(alg_path), "--cocycle", str(coc_path)]


@pytest.mark.parametrize("dim", [-1, 0])
def test_linear_rejects_nonpositive_dimension(tmp_path, dim, capsys):
    argv = write_linear_inputs(tmp_path, {"dim": dim, "structure": []},
                               {"dim": dim, "cocycle": []})
    assert_input_error(*run_cli(argv, capsys), "dim")


@pytest.mark.parametrize("algebra_dim, cocycle_dim", [(2, 3), (3, 2)])
def test_linear_rejects_cocycle_of_another_dimension(tmp_path, algebra_dim, cocycle_dim,
                                                     capsys):
    argv = write_linear_inputs(tmp_path, {"dim": algebra_dim, "structure": []},
                               {"dim": cocycle_dim,
                                "cocycle": [{"i": 1, "j": 2, "c": "1"}]})
    assert_input_error(*run_cli(argv, capsys), "cocycle")


def test_pencil_file_rejects_zero_dimension(tmp_path, capsys):
    path = tmp_path / "zero.pencil.json"
    path.write_text(json.dumps({"dim": 0, "P0": [], "Pinf": []}))
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0"], capsys)
    assert_input_error(code, out, err, "dim")


def test_toda_compares_a_spectrum_of_mixed_kinds(monkeypatch, capsys):
    # exact, irrational and complex values format as a string, a float and a
    # dict; the oracle comparison must not order one kind against another
    from bipencil import cli
    from bipencil.toda import LaxSpectrumEntry

    real = cli.toda_spectrum_via_lax

    def mixed(pt, mode):
        extra = [LaxSpectrumEntry(lam=2 ** 0.5, lax_eigenvalue=-2 ** 0.5, which="periodic",
                                  multiplicity=2),
                 LaxSpectrumEntry(lam=complex(1, 1), lax_eigenvalue=complex(-1, -1),
                                  which="antiperiodic", multiplicity=2)]
        return extra + real(pt, mode)

    monkeypatch.setattr(cli, "toda_spectrum_via_lax", mixed)
    code, out, err = run_cli(["toda", "--n", "2", "--a", "1,1", "--b", "0,0"], capsys)
    assert code == 0, err
    point = json.loads(out)["points"][0]
    assert [b["lambda"] for b in point["lax_oracle"]] == [2 ** 0.5, {"re": 1.0, "im": 1.0}, "0"]
    assert point["oracle_agrees"] is False

    values = ["1/2", 1.5, {"re": 1.0, "im": -2.0}, "-1", {"re": "1", "im": "2"}, 0.0]
    same = [-0.0, {"re": "1", "im": "2"}, "-1", {"re": 1.0, "im": -2.0}, 1.5, "1/2"]
    assert sorted(values, key=cli._scalar_key) == sorted(same, key=cli._scalar_key)


VALID_PENCIL = {"dim": 2, "P0": [{"i": 1, "j": 2, "poly": [{"c": "1", "m": [0, 0]}]}],
                "Pinf": []}


@pytest.mark.parametrize("change", [
    {"P0": 5}, {"vars": 5}, {"P0": [{"i": 1, "j": 2, "poly": 5}]}, {"declared_rank": "x"},
    {"dim": 2.5}, {"declared_rank": 2.5},
    {"P0": [{"i": 1, "j": 2, "poly": [{"c": "1", "m": [1.5, 0]}]}]}])
def test_malformed_pencil_file_is_an_input_error(tmp_path, change, capsys):
    path = tmp_path / "bad.pencil.json"
    path.write_text(json.dumps({**VALID_PENCIL, **change}))
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0,0"], capsys)
    assert code == 1 and json.loads(err)["error"] == "input"


@pytest.mark.parametrize("varnames", [[1, {"a": 2}], ["x", 2], ["x"], ["x", "y", "z"], "xy",
                                      {"x": 1, "y": 2}, [["x"], ["y"]]])
def test_pencil_vars_must_be_dim_strings(tmp_path, varnames, capsys):
    path = tmp_path / "vars.pencil.json"
    path.write_text(json.dumps({**VALID_PENCIL, "vars": varnames}))
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0,0"], capsys)
    assert_input_error(code, out, err, "vars")


def test_pencil_vars_of_dim_strings_are_accepted(tmp_path, capsys):
    path = tmp_path / "vars.pencil.json"
    path.write_text(json.dumps({**VALID_PENCIL, "vars": ["q", "p"]}))
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0,0"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("algebra_doc, cocycle_doc", [
    ({"dim": 2, "structure": []}, []),
    ({"dim": 2, "field": "quaternion", "structure": []}, {"dim": 2, "cocycle": []}),
    ({"dim": 2.5, "structure": []}, {"dim": 2, "cocycle": []})])
def test_malformed_linear_file_is_an_input_error(tmp_path, algebra_doc, cocycle_doc, capsys):
    code, out, err = run_cli(write_linear_inputs(tmp_path, algebra_doc, cocycle_doc), capsys)
    assert code == 1 and json.loads(err)["error"] == "input"


@pytest.mark.parametrize("basis", [["a"], "xyz", ["a", "b", "c", "d"], ["a", "b", 3], []])
def test_algebra_basis_must_be_dim_strings(tmp_path, basis, capsys):
    argv = write_linear_inputs(tmp_path, {"dim": 3, "basis": basis, "structure": []},
                               {"dim": 3, "cocycle": []})
    assert_input_error(*run_cli(argv, capsys), "basis")


def test_zero_denominator_in_a_point_is_an_input_error(so3_file, capsys):
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "1/0,0,0"], capsys)
    assert_input_error(code, out, err, "--point")


@pytest.mark.parametrize("option, a, b", [("--a", "1,1/0,1", "0,0,0"),
                                          ("--b", "1,1,1", "0,1/0,0")])
def test_toda_zero_denominator_is_rejected_at_its_option(option, a, b, capsys):
    code, out, err = run_cli(["toda", "--n", "3", "--a", a, "--b", b], capsys)
    assert_input_error(code, out, err, option)


def test_zero_denominator_in_a_pencil_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "zero.pencil.json"
    path.write_text(json.dumps({**VALID_PENCIL, "P0": [
        {"i": 1, "j": 2, "poly": [{"c": "1/0", "m": [0, 0]}]}]}))
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0,0"], capsys)
    assert_input_error(code, out, err, "P0[0].poly[0]")


@pytest.mark.parametrize("algebra_doc, cocycle_doc", [
    ({"dim": 2, "structure": [{"i": 1, "j": 2, "k": 1, "c": "1/0"}]}, {"dim": 2, "cocycle": []}),
    ({"dim": 2, "structure": [{"i": 1, "j": 2, "k": 1, "c": {"re": "1", "im": "0/0"}}]},
     {"dim": 2, "cocycle": []}),
    ({"dim": 2, "structure": []}, {"dim": 2, "cocycle": [{"i": 1, "j": 2, "c": "3/0"}]})])
def test_zero_denominator_in_a_linear_file_is_an_input_error(tmp_path, algebra_doc,
                                                              cocycle_doc, capsys):
    code, out, err = run_cli(write_linear_inputs(tmp_path, algebra_doc, cocycle_doc), capsys)
    assert code == 1 and out == "" and json.loads(err)["error"] == "input"


def test_unwritable_out_path_is_an_input_error(so3_file, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0,0",
                              "--out", str(target)], capsys)
    assert_input_error(code, out, err, "--out")
    assert not target.parent.exists()


def test_emit_into_a_file_is_an_input_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("kept\n")
    code, out, err = run_cli(["catalog", "--emit", "so3_shift", str(not_a_dir)], capsys)
    assert_input_error(code, out, err, "--emit")
    assert not_a_dir.read_text() == "kept\n"


def test_out_path_that_is_a_directory_leaves_no_temporary_file(so3_file, tmp_path, capsys):
    # the report is written to a temporary file and renamed onto --out; a
    # rename that fails removes the temporary file
    target = tmp_path / "reports"
    target.mkdir()
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(["analyze", "--pencil", so3_file, "--point", "0,0,0",
                              "--out", str(target)], capsys)
    assert_input_error(code, out, err, "--out")
    assert sorted(tmp_path.iterdir()) == before and list(target.iterdir()) == []


@pytest.mark.parametrize("algebra, semisimple", [("sl2", False), ("so3", True)])
def test_linear_zero_cocycle_reports_ad_semisimplicity(algebra, semisimple, tmp_path, capsys):
    # Ker A is the whole non-abelian algebra, so the root decomposition stops
    # at KernelNotAbelian and never splits ad; the flag is decided on its own
    from bipencil import algebras
    g = getattr(algebras, algebra)()
    argv = write_linear_inputs(tmp_path, g.to_json_dict(), {"dim": g.dim, "cocycle": []})
    for mode in ("exact", "float"):
        code, out, err = run_cli(argv + ["--mode", mode], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["kernel"]["dim"] == 3
        assert doc["kernel"]["abelian"] is False
        assert doc["kernel"]["ad_semisimple"] is semisimple
        assert doc["degeneracy_reason"] == "KernelNotAbelian"


def test_malformed_pencil_json_names_its_option(tmp_path, capsys):
    path = tmp_path / "bad.pencil.json"
    path.write_text('{"dim": 2,\n "P0": [}')
    code, out, err = run_cli(["analyze", "--pencil", str(path), "--point", "0,0"], capsys)
    assert_input_error(code, out, err, "--pencil")
    assert "line 2 column 9" in json.loads(err)["message"]


def test_malformed_cocycle_json_names_its_option(tmp_path, capsys):
    argv = write_linear_inputs(tmp_path, {"dim": 2, "structure": []}, {})
    (tmp_path / "coc.json").write_text('{"dim": 2,\n "cocycle": [}')
    code, out, err = run_cli(argv, capsys)
    assert_input_error(code, out, err, "--cocycle")
    assert "line 2 column 14" in json.loads(err)["message"]


def test_missing_algebra_file_names_its_option(tmp_path, capsys):
    argv = write_linear_inputs(tmp_path, {"dim": 2, "structure": []},
                               {"dim": 2, "cocycle": []})
    (tmp_path / "alg.json").unlink()
    code, out, err = run_cli(argv, capsys)
    assert_input_error(code, out, err, "--algebra")
    assert "alg.json" in json.loads(err)["message"]
