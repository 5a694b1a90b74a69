import json
import sys

import pytest

from arcspace.cli import main
from arcspace.polyalg import VarSet, parse_poly


QUADRIC_DOC = {
    "schema": 1,
    "vars": ["x0", "x1", "x2", "x3"],
    "generators": ["x0*x3 + x1*x2"],
    "arc": ["t", "0", "0", "0"],
}


def write_doc(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_jet_ideal_line(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["y"], "arc": ["t", "0"]}
    code, report = run_cli(capsys, "jet-ideal", write_doc(tmp_path, doc), "--level", "1")
    assert code == 0
    assert report["generators"] == ["y_0", "y_1"]


def test_jet_ideal_quadric_level0(tmp_path, capsys):
    code, report = run_cli(capsys, "jet-ideal", write_doc(tmp_path, QUADRIC_DOC),
                           "--level", "0")
    assert code == 0
    assert len(report["generators"]) == 1


def test_jet_ideal_round_trip(tmp_path, capsys):
    code, report = run_cli(capsys, "jet-ideal", write_doc(tmp_path, QUADRIC_DOC),
                           "--level", "2")
    assert code == 0
    assert len(report["generators"]) == 3
    from arcspace.jets import AffineScheme, jet_ideal, jet_varset

    vs = VarSet(QUADRIC_DOC["vars"])
    X = AffineScheme(vs, (parse_poly(QUADRIC_DOC["generators"][0], vs),))
    expected = jet_ideal(X, 2)
    target = jet_varset(vs, 2)
    reparsed = [parse_poly(s, target) for s in report["generators"]]
    assert reparsed == expected


def test_ord_first_example(tmp_path, capsys):
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, QUADRIC_DOC))
    assert code == 0
    assert report["ord"] == "1" and report["exact"] is True


def test_ord_power_arcs(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, arc=["t^3", "0", "0", "0"])
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc))
    assert code == 0
    assert report["ord"] == "3" and report["exact"] is True


def test_ord_exhausted_rendering(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, arc=["0", "0", "0", "0"], precision=12)
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc))
    assert code == 0
    assert report["ord"] == ">=12" and report["exact"] is False


def test_ord_generators_target(tmp_path, capsys):
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, QUADRIC_DOC),
                           "--target", "generators")
    assert code == 0
    assert report["ord"] == "infinity"


def test_ecodim_window_first_example(tmp_path, capsys):
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, QUADRIC_DOC),
                           "--window", "2:4")
    assert code == 0
    assert report["ecodim"] == 1 and report["stabilized"] is True
    assert report["per_level"] == {"2": 1, "3": 1, "4": 1}


def test_ecodim_divergence(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["x*y"], "arc": ["0", "0"]}
    path = write_doc(tmp_path, doc)
    values = []
    for n in range(5):
        code, report = run_cli(capsys, "ecodim", path, "--level", str(n))
        assert code == 0
        values.append(report["ecodim"])
    assert values == [1, 2, 3, 4, 5]


def test_ecodim_smooth_scheme(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["y"], "arc": ["t", "0"]}
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc), "--level", "2")
    assert code == 0
    assert report["ecodim"] == 0


def test_ecodim_oracle_flag(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["x*y"], "arc": ["0", "0"]}
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc),
                           "--level", "1", "--trunc-degree", "3")
    assert code == 0
    assert report["initial_ideal_oracle"]["pass"] is True


def test_ecodim_oracle_on_a_sixteen_variable_jet_level(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, arc=["t^2", "0", "0", "0"])
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc),
                           "--level", "3", "--trunc-degree", "3")
    assert code == 0
    assert (report["nvars"], report["edim"], report["dim"]) == (16, 14, 12)
    assert report["initial_ideal_oracle"] == {"degree": 3, "pass": True, "mismatches": []}


def test_ecodim_window_oracle_checks_reported_forms(tmp_path, capsys):
    # the oracle runs on the initial forms printed for the top level of the
    # window
    doc = {"schema": 1, "vars": ["x", "y", "z"], "generators": ["z - x^2", "y*z"],
           "arc": ["t", "0", "t^2"]}
    path = write_doc(tmp_path, doc)
    code, report = run_cli(capsys, "ecodim", path, "--window", "1:2", "--trunc-degree", "2")
    assert code == 0
    assert report["window"] == [1, 2]
    assert report["initial_ideal_oracle"] == {"degree": 2, "pass": True, "mismatches": []}
    code, level2 = run_cli(capsys, "ecodim", path, "--level", "2")
    assert code == 0
    assert report["initial_forms"] == level2["initial_forms"]


# the reports of the two commands below, byte for byte, as printed when the
# oracle shifted the top jet ideal a second time
_TRUNC_REPORT_HEAD = """{
  "command": "ecodim",
  "dim": 4,
  "ecodim": 1,
  "edim": 5,
  "initial_forms": [
    "z_2 - 2*x_1",
    "z_1 - 2*x_0",
    "z_0",
    "y_0",
    "x_0^2*y_1",
    "x_0^4*y_2"
  ],
  "initial_ideal_oracle": {
    "degree": 2,
    "mismatches": [],
    "pass": true
  },
  "jacobian_rank": 4,
"""
_TRUNC_REPORTS = {
    "--window": _TRUNC_REPORT_HEAD + """  "nvars": 9,
  "per_level": {
    "1": 1,
    "2": 1
  },
  "schema": 1,
  "stabilized": true,
  "window": [
    1,
    2
  ]
}
""",
    "--level": _TRUNC_REPORT_HEAD + """  "level": 2,
  "nvars": 9,
  "schema": 1,
  "stabilized": null
}
""",
}


@pytest.mark.parametrize("flag, value", [("--window", "1:2"), ("--level", "2")])
def test_ecodim_oracle_shifts_the_jet_ideal_once(tmp_path, capsys, monkeypatch, flag, value):
    import arcspace.localgeom

    calls = []
    shift = arcspace.localgeom.jet_ideal_at

    def counted(*args):
        calls.append(args[2])
        return shift(*args)

    monkeypatch.setattr(arcspace.localgeom, "jet_ideal_at", counted)
    monkeypatch.setattr("arcspace.cli.jet_ideal_at", counted, raising=False)
    doc = {"schema": 1, "vars": ["x", "y", "z"], "generators": ["z - x^2", "y*z"],
           "arc": ["t", "0", "t^2"]}
    assert main(["ecodim", write_doc(tmp_path, doc), flag, value, "--trunc-degree", "2"]) == 0
    assert capsys.readouterr().out == _TRUNC_REPORTS[flag]
    assert calls == [2]


def test_drinfeld_first_example(tmp_path, capsys):
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, QUADRIC_DOC),
                           "--seed", "0")
    assert code == 0
    assert report["certified"] is True
    assert (report["e"], report["m"], report["edim"]) == (1, 8, 6)
    assert (report["dim"], report["ecodim"]) == (5, 1)
    assert report["dim_bounds"] == [5, 6]
    assert report["seed"] == 0
    # equations re-parse over the model variables
    from arcspace.drinfeld import model_varset

    vs = model_varset(1, 3, 1)
    for s in report["equations"]:
        parse_poly(s, vs)


def test_drinfeld_second_example_m2(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, arc=["t^2", "0", "0", "0"])
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, doc), "--seed", "1")
    assert code == 0
    assert (report["e"], report["m"], report["edim"]) == (2, 16, 12)
    assert (report["dim"], report["ecodim"]) == (10, 2)


def test_exit_code_input_error(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, generators=["x0*x3 + bogus"])
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc))
    assert code == 1
    assert report["error"]["kind"] == "UnknownVariableError"
    assert report["error"]["position"] == 8


def test_non_ascii_digit_is_a_parse_error_with_a_position(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, generators=["x0^²*x3 + x1*x2"])
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc))
    assert code == 1
    assert report["error"]["kind"] == "ParseError"
    assert report["error"]["position"] == 3


def test_exit_code_certificate_failure(tmp_path, capsys):
    doc = {
        "schema": 1,
        "vars": ["x0", "x1", "x2", "x3"],
        "generators": ["x0*x1 + x2*x3 + x2^2", "x0*x2 + x1^2 - x3^2"],
        "dim": 2,
        "arc": ["t", "0", "0", "0"],
    }
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, doc),
                           "--seed", "0", "--resample-limit", "0")
    assert code == 2
    assert report["error"]["kind"] == "CertificateFailureError"


def test_declared_dim_below_krull_bound(tmp_path, capsys):
    # every component of a hypersurface in A^4 has dimension 3
    path = write_doc(tmp_path, dict(QUADRIC_DOC, dim=1))
    for argv in (["jet-ideal", path, "--level", "1"], ["ecodim", path, "--level", "1"],
                 ["ord", path]):
        code, report = run_cli(capsys, *argv)
        assert code == 1
        assert report["error"]["kind"] == "ValueError"
        assert "N - c = 3" in report["error"]["message"]


@pytest.mark.parametrize("command", ["jet-ideal", "ecodim"])
def test_negative_level_is_an_input_error(tmp_path, capsys, command):
    code, report = run_cli(capsys, command, write_doc(tmp_path, QUADRIC_DOC), "--level", "-1")
    assert code == 1
    assert report["error"]["kind"] == "ValueError"
    assert "jet level must be nonnegative" in report["error"]["message"]


def test_exit_code_singular_arc(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["x*y"], "arc": ["0", "0"]}
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, doc), "--seed", "0")
    assert code == 1


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARCSPACE_SEED", "7")
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, QUADRIC_DOC))
    assert code == 0
    assert report["seed"] == 7


def test_reproducibility_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, QUADRIC_DOC)
    code1 = main(["drinfeld", path, "--seed", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["drinfeld", path, "--seed", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["ord", write_doc(tmp_path, QUADRIC_DOC), "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["ord"] == "1"


@pytest.mark.parametrize("doc", [QUADRIC_DOC, dict(QUADRIC_DOC, generators=["x0*x3 + bogus"])],
                         ids=["report", "input-error"])
def test_an_unwritable_output_is_an_error_on_stdout(tmp_path, capsys, doc):
    out = tmp_path / "missing" / "report.json"
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc), "--output", str(out))
    assert code == 1
    assert report["schema"] == 1 and report["error"]["exit_code"] == 1
    assert report["error"]["kind"] == ("FileNotFoundError" if doc is QUADRIC_DOC
                                       else "UnknownVariableError")
    assert not out.parent.exists()


def test_verify_dgk_command(tmp_path, capsys):
    code, report = run_cli(capsys, "verify-dgk", write_doc(tmp_path, QUADRIC_DOC),
                           "--seed", "0")
    assert code == 0
    assert report["certified"] and report["cross_validated"]
    assert report["edim"] == 6 and report["ecodim"] == 1
    assert report["tangent_rank"] == 6


def test_precision_override(tmp_path, capsys):
    code, report = run_cli(capsys, "ord", write_doc(tmp_path, QUADRIC_DOC),
                           "--precision", "5")
    # the overridden arc is only known mod t^5; order 1 is still exact
    assert code == 0
    assert report["ord"] == "1" and report["exact"] is True


def test_invalid_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"vars\": []}", encoding="utf-8")
    code, report = run_cli(capsys, "ord", str(path))
    assert code == 1


def test_exit_code_assertion_failure(tmp_path, capsys, monkeypatch):
    from arcspace.errors import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError("forced for the exit-code contract", 0, 1)

    monkeypatch.setattr("arcspace.cli.drinfeld_pipeline", boom)
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, QUADRIC_DOC),
                           "--seed", "0")
    assert code == 3
    assert report["error"]["kind"] == "VerificationError"


def test_exit_code_resource_limit(tmp_path, capsys, monkeypatch):
    from arcspace.errors import ResourceLimitError

    def boom(*args, **kwargs):
        raise ResourceLimitError("forced for the exit-code contract")

    monkeypatch.setattr("arcspace.cli.ecodim_jet", boom)
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, QUADRIC_DOC),
                           "--level", "2")
    assert code == 4
    assert report["error"]["kind"] == "ResourceLimitError"


def test_declared_dim_triggers_finiteness_warning(tmp_path, capsys):
    import warnings

    doc = dict(QUADRIC_DOC, dim=3, arc=["0", "0", "0", "0"], precision=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_cli(capsys, "ord", write_doc(tmp_path, doc))
    assert code == 0
    assert report["ord"] == ">=6"
    assert any("finiteness undecided" in str(w.message) for w in caught)


def test_options_block_in_document(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, options={"seed": 9, "resample_limit": 5})
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, doc))
    assert code == 0
    assert report["seed"] == 9


def test_precision_cap_guards_levels(tmp_path, capsys):
    doc = dict(QUADRIC_DOC, options={"precision_cap": 4})
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc),
                           "--level", "5")
    assert code == 1
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc),
                           "--level", "3")
    assert code == 0


def test_a_lifted_precision_cap_admits_tall_levels(tmp_path, capsys):
    """With precision_cap null no level is refused, and a level past the
    recursion limit is computed."""
    level = 2 * sys.getrecursionlimit()
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["y"], "arc": ["t", "0"],
           "options": {"precision_cap": None}}
    code, report = run_cli(capsys, "jet-ideal", write_doc(tmp_path, doc),
                           "--level", str(level))
    assert code == 0
    assert report["generators"] == [f"y_{j}" for j in range(level + 1)]


def test_initial_forms_round_trip(tmp_path, capsys):
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, QUADRIC_DOC),
                           "--window", "2:4")
    assert code == 0
    from arcspace.jets import jet_varset
    vs = VarSet(QUADRIC_DOC["vars"])
    target = jet_varset(vs, 4)
    for s in report["initial_forms"]:
        parse_poly(s, target)


def test_ecodim_window_not_stabilized(tmp_path, capsys):
    doc = {"schema": 1, "vars": ["x", "y"], "generators": ["x*y"], "arc": ["0", "0"]}
    code, report = run_cli(capsys, "ecodim", write_doc(tmp_path, doc),
                           "--window", "0:4")
    assert code == 0
    assert report["stabilized"] is False
    assert report["per_level"] == {"0": 1, "1": 2, "2": 3, "3": 4, "4": 5}


def test_one_level_window_has_not_stabilized(tmp_path, capsys):
    # one level compares nothing: neither report may claim stabilization
    path = write_doc(tmp_path, QUADRIC_DOC)
    code, report = run_cli(capsys, "ecodim", path, "--window", "3:3")
    assert code == 0
    assert report["stabilized"] is False
    assert report["ecodim"] == 1 and report["per_level"] == {"3": 1}
    code, report = run_cli(capsys, "verify-dgk", path, "--seed", "0", "--window", "2:2")
    assert code == 0
    assert report["jet_window"]["stabilized"] is False
    assert report["cross_validated"] is False
    assert report["certified"] and report["ecodim"] == 1


def test_arc_off_the_scheme_is_an_input_error(tmp_path, capsys):
    # x0*x3 + x1*x2 along (1, t, 1, t^3) is t: the arc leaves X at order 1
    doc = dict(QUADRIC_DOC, arc=["1", "t", "1", "t^3"])
    path = write_doc(tmp_path, doc)
    code, report = run_cli(capsys, "ecodim", path, "--level", "0")
    assert code == 0 and report["ecodim"] == 0
    for argv in (["--level", "1"], ["--window", "0:2"], ["--level", "2", "--trunc-degree", "2"]):
        code, report = run_cli(capsys, "ecodim", path, *argv)
        assert code == 1
        assert report["error"]["kind"] == "PointNotOnSchemeError"
        assert report["error"]["message"].startswith("D_1(g_1) does not vanish")


# (key, whether it sits in the options block, a command that reads it, a valid value)
INTEGER_KEYS = [
    ("dim", False, ["ord"], 3),
    ("precision", False, ["ord"], 8),
    ("seed", True, ["drinfeld"], 9),
    ("level", True, ["ecodim"], 1),
    ("trunc_degree", True, ["ecodim", "--level", "1"], 1),
    ("resample_limit", True, ["drinfeld"], 5),
    ("precision_cap", True, ["ecodim", "--level", "1"], 64),
]


def _doc_with(key, in_options, value):
    if in_options:
        return dict(QUADRIC_DOC, options={key: value})
    return dict(QUADRIC_DOC, **{key: value})


@pytest.mark.parametrize("key, in_options, argv, good", INTEGER_KEYS)
@pytest.mark.parametrize("bad", [2.9, 1.0, True])
def test_document_integers_refuse_floats_and_bools(tmp_path, capsys, key, in_options,
                                                   argv, good, bad):
    # int() would truncate 2.9 to 2 and read true as 1: the run would go on
    # with a value the document does not state
    path = write_doc(tmp_path, _doc_with(key, in_options, bad))
    code, report = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 1
    assert report["error"]["kind"] == "ValueError"
    assert repr(key) in report["error"]["message"]


@pytest.mark.parametrize("key, in_options, argv, good", INTEGER_KEYS)
def test_document_integers_take_ints_and_decimal_strings(tmp_path, capsys, key, in_options,
                                                         argv, good):
    reports = []
    for value in (good, str(good)):
        path = write_doc(tmp_path, _doc_with(key, in_options, value))
        code, report = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]
    path = write_doc(tmp_path, _doc_with(key, in_options, "2.5"))
    code, report = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 1 and repr(key) in report["error"]["message"]


@pytest.mark.parametrize("command", ["drinfeld", "verify-dgk"])
def test_negative_resample_limit_is_an_input_error(tmp_path, capsys, command):
    # before, -3 ran no draw at all and reported a certificate failure
    # "in -2 attempts" with exit code 2
    path = write_doc(tmp_path, QUADRIC_DOC)
    code, report = run_cli(capsys, command, path, "--resample-limit", "-3")
    assert code == 1
    assert report["error"]["kind"] == "ValueError"
    assert "resample limit" in report["error"]["message"]
    path = write_doc(tmp_path, dict(QUADRIC_DOC, options={"resample_limit": -3}))
    code, report = run_cli(capsys, command, path)
    assert code == 1 and report["error"]["kind"] == "ValueError"
    code, report = run_cli(capsys, command, path, "--resample-limit", "0")
    assert code == 0


@pytest.mark.parametrize("degree", ["-1", "0"])
def test_truncation_degree_below_one_is_an_input_error(tmp_path, capsys, degree):
    # before, the oracle checked no monomial and reported "pass": true
    path = write_doc(tmp_path, QUADRIC_DOC)
    code, report = run_cli(capsys, "ecodim", path, "--level", "1", "--trunc-degree", degree)
    assert code == 1
    assert report["error"]["kind"] == "ValueError"
    assert "truncation degree" in report["error"]["message"]
    path = write_doc(tmp_path, dict(QUADRIC_DOC, options={"trunc_degree": int(degree)}))
    code, report = run_cli(capsys, "ecodim", path, "--level", "1")
    assert code == 1 and report["error"]["kind"] == "ValueError"
    code, report = run_cli(capsys, "ecodim", path, "--level", "1", "--trunc-degree", "1")
    assert code == 0 and report["initial_ideal_oracle"]["pass"] is True


@pytest.mark.parametrize("argv, named", [
    (["jet-ideal", "{doc}"], "--level"),
    (["jet-ideal", "{doc}", "--level", "x"], "--level"),
    (["ecodim", "{doc}", "--level", "2", "--window", "1:3"], "--window"),
], ids=["missing-level", "non-integer-level", "level-and-window"])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv, named):
    # before, argparse exited with code 2, which is reserved for a certificate
    # failure, and ecodim ran the window and ignored --level
    path = write_doc(tmp_path, QUADRIC_DOC)
    code, report = run_cli(capsys, *(a.format(doc=path) for a in argv))
    assert code == 1
    assert report["schema"] == 1
    assert report["error"]["kind"] == "ValueError" and report["error"]["exit_code"] == 1
    assert named in report["error"]["message"]


@pytest.mark.parametrize("command", ["ecodim", "verify-dgk"])
@pytest.mark.parametrize("flag", ["--window", "--window=-1:2"])
def test_a_bad_window_is_an_input_error(tmp_path, capsys, command, flag):
    # before, verify-dgk built the whole model before ecodim_window saw the
    # window 3:1, and on this document ran out of budget (exit code 4)
    doc = {"vars": ["x", "y"], "generators": ["x^2 - y^3"], "arc": ["t^3", "t^2"],
           "precision": 12}
    argv = [flag, "3:1"] if flag == "--window" else [flag]
    code, report = run_cli(capsys, command, write_doc(tmp_path, doc), *argv)
    assert code == 1
    assert report["error"]["kind"] == "ValueError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ecodim", "--help"])
    assert exc.value.code == 0
    assert "--window" in capsys.readouterr().out


def test_bad_seed_in_environment_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARCSPACE_SEED", "seven")
    code, report = run_cli(capsys, "drinfeld", write_doc(tmp_path, QUADRIC_DOC))
    assert code == 1
    assert "'ARCSPACE_SEED'" in report["error"]["message"]
