import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import weilcalc
from weilcalc.cli import main
from weilcalc.specfile import dumps_canonical, load_spec_path


def invoke(args, capsys):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def _run_cli(argv, *options, **env):
    """(exit code, stdout) of a child interpreter running the CLI with the
    given interpreter options and extra environment; the child imports the
    same weilcalc, installed or not."""
    src = str(Path(weilcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    proc = subprocess.run([sys.executable, *options, "-m", "weilcalc.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


@pytest.fixture()
def f1_path(tmp_path, capsys):
    path = tmp_path / "f1.json"
    code, _ = invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path)], capsys)
    assert code == 0
    return path


def test_fixture_emit_validate_roundtrip(f1_path, capsys):
    code, out = invoke(["validate", str(f1_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_reemission_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(a)], capsys)
    invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    # loading and re-serializing is also byte-identical (canonical form)
    spec = load_spec_path(a)
    assert dumps_canonical(spec.to_dict()).encode() == a.read_bytes()


def test_curvature_command_values(f1_path, capsys):
    code, out = invoke(["curvature", str(f1_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    tables = doc["curvature"]["tables"]
    assert tables["0"]["1|"] == {"1|1,2": "1"}
    assert tables["1"]["|1"] == {"1|2": "x1"}
    assert tables["1"]["|2"] == {"1|1": "-x1"}


def test_bianchi_command(f1_path, capsys):
    code, out = invoke(["bianchi", str(f1_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["name"] == "D(Omega) == 0"
    assert doc["checks"][0]["status"] == "pass"


def test_tampered_so3_exits_one_and_names_triple(tmp_path, capsys):
    path = tmp_path / "f0.json"
    invoke(["fixture", "--name", "F0_so3", "--emit", str(path)], capsys)
    data = json.loads(path.read_text())
    data["algebroid"]["structure"]["1,2,1"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out = invoke(["validate", str(bad)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "math_fail"
    failing = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    assert "algebroid.jacobi(1,2,3)" in failing


def test_rescaled_so3_still_validates(tmp_path, capsys):
    # scaling c^3_{12} yields an isomorphic Lie algebra; Jacobi must pass
    path = tmp_path / "f0.json"
    invoke(["fixture", "--name", "F0_so3", "--emit", str(path)], capsys)
    data = json.loads(path.read_text())
    data["algebroid"]["structure"]["1,2,3"] = "2"
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps(data))
    code, out = invoke(["validate", str(iso)], capsys)
    doc = json.loads(out)
    jacobi = [c for c in doc["checks"] if "jacobi" in c["name"]]
    assert jacobi and all(c["status"] == "pass" for c in jacobi)


@pytest.mark.parametrize("name,rank", [("F1_abelian_2d", 2), ("F2_semisimple_2d", 4)])
def test_wrong_rank_im_cochain_fails_only_multiplicative(name, rank, tmp_path, capsys):
    # a cochain not valued in the ideal fails the IM connection's shape check
    # once; the report keeps every earlier check and lists no C.1-C.3 item
    path = tmp_path / "spec.json"
    invoke(["fixture", "--name", name, "--emit", str(path)], capsys)
    _, out = invoke(["validate", str(path)], capsys)
    good = json.loads(out)["checks"]
    data = json.loads(path.read_text())
    data["im_connection"]["cochain"]["bundle_rank"] = rank
    path.write_text(json.dumps(data))
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "math_fail"
    shape = [c["name"] for c in good].index("im_connection.multiplicative")
    assert doc["checks"] == good[:shape] + [
        {"name": "im_connection.multiplicative", "status": "fail",
         "detail": "IM connection needs an ideal-valued W^{1,1} cochain"}]


def test_malformed_spec_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"chart": {"dim": 2}}')
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == "$.algebroid"


@pytest.mark.parametrize("content", [
    b'{"chart": {"dim": 2, "variables": ["x", "\xff"]}}',
    b'{"chart": {"dim": ' + b"7" * 5000 + b"}}",
    b"[" * 100000 + b"]" * 100000,
], ids=["not_utf8", "int_past_digit_limit", "nested_past_recursion_limit"])
def test_undecodable_spec_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == str(path)
    assert doc["error"]["reason"].startswith("invalid JSON: ")


def test_duplicate_variable_names_exit_two(f1_path, tmp_path, capsys):
    data = json.loads(f1_path.read_text())
    data["chart"]["variables"] = ["x1", "x1"]
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(data))
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == "chart.variables"
    assert doc["error"]["reason"] == "variable names must be distinct"


_TABLES = ("im_connection", "cochain", "tables")


@pytest.mark.parametrize("name, field, value, where", [
    ("F0_so3", ("algebroid", "structure", "1,2,3"), "x9 +", "algebroid.structure.1,2,3"),
    ("F0_so3", ("algebroid", "structure", "1,2,3"), "1/0", "algebroid.structure.1,2,3"),
    ("F0_so3", ("algebroid", "anchor"), [], "algebroid.anchor"),
    ("F0_so3", ("algebroid", "structure"), 7, "algebroid.structure"),
    ("F0_so3", _TABLES + ("1",), [], "im_connection.cochain.tables.1"),
    ("F0_so3", _TABLES + ("1", "|2"), "1", "im_connection.cochain.tables.1.|2"),
    ("F0_so3", ("ideal",), 7, "ideal"),
    ("F0_so3", ("connection",), None, "connection"),
    ("F0_so3", ("im_connection",), True, "im_connection"),
    ("F0_so3", ("curving",), 7, "curving"),
    ("F0_so3", ("cochains",), [7], "cochains[0]"),
    ("F1_abelian_2d", ("algebroid", "structure", "1,2,3"), "x1^40000*x2^30000",
     "algebroid.structure.1,2,3"),
    # JSON booleans are not integers
    ("F2_semisimple_2d", ("ideal", "indices"), [True, 4, 5], "ideal.indices"),
    ("F2_semisimple_2d", ("chart", "dim"), True, "chart.dim"),
    ("F2_semisimple_2d", ("algebroid", "rank"), False, "algebroid.rank"),
    ("F2_semisimple_2d", ("connection", "bundle_rank"), True, "connection.bundle_rank"),
    ("F2_semisimple_2d", ("im_connection", "cochain", "p"), True, "im_connection.cochain.p"),
], ids=["malformed", "zero_denominator", "anchor_not_object", "structure_not_object",
        "table_level_not_object", "table_entry_not_object", "ideal_not_object",
        "connection_null", "im_connection_bool", "curving_not_object",
        "cochain_not_object", "exponent_too_large", "ideal_index_bool", "chart_dim_bool",
        "algebroid_rank_bool", "connection_rank_bool", "cochain_level_bool"])
def test_bad_polynomial_diagnostic_is_located(tmp_path, capsys, name, field, value, where):
    path = tmp_path / "spec.json"
    invoke(["fixture", "--name", name, "--emit", str(path)], capsys)
    data = json.loads(path.read_text())
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    bad = tmp_path / "badpoly.json"
    bad.write_text(json.dumps(data))
    code, out = invoke(["validate", str(bad)], capsys)
    assert code == 2
    assert where in json.loads(out)["error"]["path"]


def test_cochain_component_key_without_bar_exits_two(f1_path, tmp_path, capsys):
    # cochain entries and forms share one component-table parser
    data = json.loads(f1_path.read_text())
    entry = data["im_connection"]["cochain"]["tables"]["1"]["|3"]
    entry["1"] = entry.pop("1|")
    path = tmp_path / "no_bar.json"
    path.write_text(json.dumps(data))
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == "im_connection.cochain.tables.1.|3.1"
    assert doc["error"]["reason"] == "component key must be 'b|a1,a2,...'"


@pytest.mark.parametrize("argv, flag", [
    (["deform", "SPEC", "--with", "0", "--lambda", "1/0"], "--lambda"),
    (["deform", "SPEC", "--with", "0", "--lambda", "abc"], "--lambda"),
    (["deform", "SPEC", "--with", "0", "--lambda", "1e400"], "--lambda"),
    (["obstruction", "SPEC", "--bound", "-1"], "--bound"),
    (["curving", "SPEC", "--solve", "--bound", "-1"], "--bound"),
    (["fixture", "--name", "F1_abelian_2d", "--with-cochain=-1,1"], "--with-cochain"),
    (["fixture", "--name", "F1_abelian_2d", "--with-cochain=1,1", "--degree", "-1"],
     "--degree"),
    # argparse takes -3/4 for an option, so --lambda has no value
    (["deform", "SPEC", "--with", "0", "--lambda", "-3/4"], "--lambda"),
    (["delta", "SPEC", "--index", "x"], "--index"),
    (["curving", "SPEC", "--check"], "--check"),
], ids=["lambda_zero_denominator", "lambda_not_rational", "lambda_exponent",
        "obstruction_negative_bound", "curving_negative_bound", "negative_bidegree",
        "negative_degree", "lambda_negative", "index_not_int", "unknown_flag"])
def test_bad_numeric_flag_is_located(tmp_path, capsys, argv, flag):
    path = tmp_path / "f1c.json"
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path),
            "--with-cochain", "1,1"], capsys)
    code, out = invoke([str(path) if a == "SPEC" else a for a in argv], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == flag


@pytest.mark.parametrize("argv, where", [
    ([], "command"),
    (["frobnicate"], "command"),
    (["delta"], "spec"),
    (["deform", "spec.json"], "--with"),
    (["fixture", "--name", "F9"], "--name"),
    (["delta", "spec.json", "extra"], "extra"),
], ids=["no_command", "unknown_command", "missing_spec", "missing_option", "bad_choice",
        "extra_argument"])
def test_argument_error_is_located(capsys, argv, where):
    # argparse rejects these before any spec file is read
    code, out = invoke(argv, capsys)
    assert code == 2
    assert out == dumps_canonical(json.loads(out))
    doc = json.loads(out)
    assert doc["status"] == "input_error"
    assert doc["error"]["path"] == where


def _bare_choices(self, action, value):
    # argparse's own check as 3.13 words it: the choices unquoted
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


@pytest.mark.parametrize("bare", [False, True], ids=["this_interpreter", "bare_choices"])
@pytest.mark.parametrize("argv, where, reason", [
    (["frobnicate"], "command",
     "invalid choice: 'frobnicate' (choose from 'validate', 'delta', 'dnabla', 'hproj', "
     "'dhor', 'curvature', 'bianchi', 'deform', 'obstruction', 'curving', 'fixture')"),
    (["fixture", "--name", "F9"], "--name",
     "invalid choice: 'F9' (choose from 'F0_so3', 'F1_abelian_2d', 'F2_semisimple_2d', "
     "'F3_foliation_4d')"),
], ids=["unknown_command", "bad_choice"])
def test_invalid_choice_reason_is_pinned(capsys, monkeypatch, bare, argv, where, reason):
    # the report quotes the choices whatever the interpreter's argparse prints
    if bare:
        monkeypatch.setattr(argparse.ArgumentParser, "_check_value", _bare_choices)
    code, out = invoke(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"path": where, "reason": reason}


def _one_cochain_spec(path, anchor, entry):
    """A rank-1 algebroid on a line with one W^{0,0} cochain."""
    path.write_text(json.dumps({
        "chart": {"dim": 1},
        "algebroid": {"rank": 1, "anchor": {"1,1": anchor}},
        "cochains": [{"p": 0, "q": 0, "bundle_rank": 1,
                      "tables": {"0": {"|": {"1|": entry}}}}]}))
    return path


def test_coefficients_past_the_int_digits_limit_are_printed(tmp_path):
    # delta of a 3000-digit cochain has 6000-digit coefficients, past the
    # 4300 digits that str(int) converts by default
    sevens = "7" * 3000
    path = _one_cochain_spec(tmp_path / "big.json", sevens, sevens + "*x1")
    code, out = _run_cli(["delta", str(path)])
    assert code == 0 and json.loads(out)["status"] == "ok"
    assert (code, out) == _run_cli(["delta", str(path)], "-X", "int_max_str_digits=0")
    assert f'"{Decimal(int(sevens) ** 2)}"' in out


@pytest.mark.parametrize("entry, reason", [
    ("x1^" + "1" * 5000, "exponent of 5000 digits exceeds the degree limit 65535"),
    ("x1^000001", "exponent of 6 digits exceeds the degree limit 65535"),
    ("7" * 4301 + "*x1", "numeral of 4301 digits exceeds the limit of 4300 digits"),
    ("1/" + "7" * 5000, "numeral of 5000 digits exceeds the limit of 4300 digits"),
], ids=["exponent_5000_digits", "exponent_6_digits", "numeral_4301_digits",
        "denominator_5000_digits"])
def test_long_numerals_are_input_errors(tmp_path, capsys, entry, reason):
    # the digit string is measured before it is converted, whatever the
    # interpreter's int-digits limit
    path = _one_cochain_spec(tmp_path / "long.json", "1", entry)
    code, out = invoke(["delta", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"path": "cochains[0].tables.0.|.1|", "reason": reason}
    assert _run_cli(["delta", str(path)], "-X", "int_max_str_digits=0") == (code, out)


def test_delta_and_dhor_on_embedded_cochain(tmp_path, capsys):
    path = tmp_path / "f2c.json"
    code, _ = invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(path),
                      "--with-cochain", "1,1", "--seed", "5"], capsys)
    assert code == 0
    for cmd in ("delta", "dnabla", "hproj", "dhor"):
        code, out = invoke([cmd, str(path)], capsys)
        assert code == 0, out
        assert json.loads(out)["status"] == "ok"


def test_seed_changes_embedded_cochain(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(a),
            "--with-cochain", "1,1", "--seed", "1"], capsys)
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(b),
            "--with-cochain", "1,1", "--seed", "1"], capsys)
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(c),
            "--with-cochain", "1,1", "--seed", "2"], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_deform_command(tmp_path, capsys):
    path = tmp_path / "f1c.json"
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path),
            "--with-cochain", "0,1", "--seed", "3"], capsys)
    # turn the embedded 1-form into its coboundary first via delta? deform
    # expects an IM cochain; embedded random (0,1) is a plain form, so ask
    # for its delta through the library and write a new spec.
    spec = load_spec_path(path)
    from weilcalc import delta
    L = delta(spec.A, spec.build_ideal().adjoint_rep(), spec.cochains[0])
    spec.cochains = [L]
    path2 = tmp_path / "f1d.json"
    path2.write_text(dumps_canonical(spec.to_dict()))
    # an integer, p/q and a decimal without exponent are each exact rationals
    for lam in ("2", "3/4", "0.5"):
        code, out = invoke(["deform", str(path2), "--lambda", lam, "--with", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert {c["name"]: c["status"]
                for c in doc["checks"]}["quadratic expansion exact"] == "pass"


def test_deform_rejects_non_im(tmp_path, capsys):
    path = tmp_path / "f1c.json"
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path),
            "--with-cochain", "1,1", "--seed", "3"], capsys)
    code, out = invoke(["deform", str(path), "--lambda", "1", "--with", "0"], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "math_fail"


def test_obstruction_command(f1_path, capsys):
    code, out = invoke(["obstruction", str(f1_path), "--bound", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["cocycle is horizontal"] == "pass"
    assert names["cocycle is delta-closed"] == "pass"
    assert names["horizontal corrector at degree bound 2"] == "pass"


def test_curving_check_and_solve(f1_path, capsys):
    code, out = invoke(["curving", str(f1_path)], capsys)
    assert code == 0
    code, out = invoke(["curving", str(f1_path), "--solve", "--bound", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "curving" in doc


@pytest.mark.parametrize("name", ["F0_so3", "F3_foliation_4d"])
def test_edge_fixtures_roundtrip_through_cli(name, tmp_path, capsys):
    # zero-dimensional chart and four variables both serialize canonically
    path = tmp_path / f"{name}.json"
    code, _ = invoke(["fixture", "--name", name, "--emit", str(path)], capsys)
    assert code == 0
    spec = load_spec_path(path)
    assert dumps_canonical(spec.to_dict()).encode() == path.read_bytes()
    for cmd in ("validate", "curvature", "bianchi"):
        code, out = invoke([cmd, str(path)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "ok"


def test_curving_solve_recovers_unique_curving_on_f2(tmp_path, capsys):
    path = tmp_path / "f2.json"
    invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(path)], capsys)
    code, out = invoke(["curving", str(path), "--solve", "--bound", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["curving"]["components"] == {"3|1,2": "-1"}


def test_index_selects_one_cochain(tmp_path, capsys):
    path = tmp_path / "f1c.json"
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path),
            "--with-cochain", "1,1", "--seed", "4"], capsys)
    code, out = invoke(["delta", str(path), "--index", "0"], capsys)
    assert code == 0
    assert len(json.loads(out)["delta"]) == 1
    for index in ("3", "-1"):
        code, out = invoke(["delta", str(path), "--index", index], capsys)
        assert code == 2
        # the error names the flag that carries the bad value
        assert json.loads(out)["error"] == {"path": "--index",
                                            "reason": f"--index {index} out of range"}


def test_deform_with_out_of_range_is_located(f1_path, tmp_path, capsys):
    path = tmp_path / "f1c.json"
    invoke(["fixture", "--name", "F1_abelian_2d", "--emit", str(path),
            "--with-cochain", "1,1"], capsys)
    code, out = invoke(["deform", str(path), "--with", "5", "--lambda", "1"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"path": "--with",
                                        "reason": "--with index 5 out of range"}
    # a spec without cochains is located at its cochains
    code, out = invoke(["delta", str(f1_path)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"path": "cochains",
                                        "reason": "command needs at least one cochain"}


def test_console_entry_point(f1_path):
    code, out = _run_cli(["bianchi", str(f1_path)])
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path, capsys):
    # set and dict iteration under a different string hash must not reach
    # the report: each command prints the same bytes under two hash seeds
    path = tmp_path / "f2c.json"
    code, _ = invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(path),
                      "--with-cochain", "1,1"], capsys)
    assert code == 0
    for argv in (["validate"], ["hproj"], ["dhor"], ["obstruction", "--bound", "1"]):
        runs = [_run_cli([argv[0], str(path), *argv[1:]], PYTHONHASHSEED=seed)
                for seed in ("0", "3")]
        assert runs[0][1], argv
        assert runs[0] == runs[1], argv


def test_validate_checks_a_non_im_cochain_once(tmp_path, capsys, monkeypatch):
    # IMConnection and the C.x listing share one check_IM report
    from weilcalc import cli, ideals
    path = tmp_path / "spec.json"
    invoke(["fixture", "--name", "F2_semisimple_2d", "--emit", str(path)], capsys)
    data = json.loads(path.read_text())
    data["im_connection"]["cochain"]["tables"]["0"]["1|"]["3|2"] = "-1 + x1"
    path.write_text(json.dumps(data))
    calls, check_IM = [], cli.check_IM

    def counted(*args):
        calls.append(args)
        return check_IM(*args)

    monkeypatch.setattr(cli, "check_IM", counted)
    monkeypatch.setattr(ideals, "check_IM", counted)
    code, out = invoke(["validate", str(path)], capsys)
    assert code == 1 and len(calls) == 1
    names = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert names[0] == "im_connection.multiplicative"
    assert any(name.startswith("im_connection.C.") for name in names[1:])
