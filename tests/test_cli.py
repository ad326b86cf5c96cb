import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compalg
from compalg.cli import build_parser, main
from golden.check import RECORDS, label, mismatch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def test_hirsch_text_output(capsys):
    code, out, _ = run(capsys, "poincare", "hirsch", "--g", "BC:3", "--u", "U1SU:3", "--output", "text")
    assert code == 0
    assert out == "1 + t^4 + t^6 + t^10"


def test_hirsch_json_and_latex(capsys):
    code, out, _ = run(capsys, "poincare", "hirsch", "--g", "D:3", "--u", "U1SU:3")
    assert code == 0
    assert json.loads(out) == {"0": 1, "4": 1}
    code, out, _ = run(capsys, "poincare", "hirsch", "--g", "D:3", "--u", "U1SU:3", "--output", "latex")
    assert out == "1 + t^{4}"


def test_verify_bound_example(capsys):
    code, out, _ = run(
        capsys,
        "span", "verify-bound",
        "--field", "Fp:2", "--split",
        "--m", "1", "--n", "1", "--d", "1",
        "--trials", "10", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["successes"] == 10
    assert payload["counterexample"] is None


def test_zmod_loc_model(capsys):
    code, out, _ = run(capsys, "zmod", "loc-model", "--n", "2", "--smax", "5", "--signs", "++-+")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_injective"] is True
    assert payload["splits"] is True
    assert payload["middle_rank"] == 10


def test_span_rank_fixtures(capsys):
    for name, expected in (("z1", 2), ("z2", 1), ("z3", 0)):
        code, out, _ = run(capsys, "span", "rank", "--fixture", name)
        assert code == 0
        assert json.loads(out) == {"rank": expected}


def test_clifford_product(capsys):
    code, out, _ = run(capsys, "clifford", "product", "--sig", "0,2", "--x", "e12", "--y", "e12")
    assert (code, out) == (0, '{"0":"-1"}')
    # a coefficient and its blade may be juxtaposed, as in the pinned "3 e1"; "1e3" is e3, not the float 1000
    code, out, _ = run(capsys, "clifford", "product", "--sig", "3,0", "--x", "1e3", "--y", "1")
    assert (code, out) == (0, '{"3":"1"}')


def test_determinism_same_seed(capsys):
    args = (
        "span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1",
        "--m", "2", "--n", "2", "--d", "2", "--trials", "5", "--seed", "11",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# runs `python -m compalg.cli ARGS` and then lists every module the process loaded on stderr
LIST_MODULES = """
import runpy, sys
try:
    runpy.run_module("compalg.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(" ".join(sorted(sys.modules)))
"""


def test_quat_is_split_imports_no_other_command():
    env = dict(os.environ, PYTHONPATH=str(Path(compalg.__file__).resolve().parents[1]))
    argv = ["quat", "is-split", "--field", "Q", "--a", "-1", "--b", "-1"]
    proc = subprocess.run(
        [sys.executable, "-c", LIST_MODULES, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, '{"verdict":"nonsplit","zero_divisor":null}\n'), proc.stderr
    loaded = set(proc.stderr.split())
    assert {"compalg", "compalg.quaternion"} <= loaded
    never = {f"compalg.{name}" for name in ("weyl", "clifford", "zmodule", "poincare", "rank")}
    assert not loaded & (never | {"dataclasses"})


def test_compalg_qq_loads_no_command_module():
    env = dict(os.environ, PYTHONPATH=str(Path(compalg.__file__).resolve().parents[1]))
    script = "import sys, compalg; compalg.QQ; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "compalg.fields" in loaded
    never = {f"compalg.{name}" for name in ("rank", "weyl", "clifford", "zmodule", "poincare")}
    assert not loaded & (never | {"dataclasses"})


def test_zmod_loc_model_loads_only_zmodule():
    env = dict(os.environ, PYTHONPATH=str(Path(compalg.__file__).resolve().parents[1]))
    argv = ["zmod", "loc-model", "--n", "3", "--smax", "8", "--signs", "+-++-"]
    proc = subprocess.run(
        [sys.executable, "-c", LIST_MODULES, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["splits"] is True, proc.stderr
    loaded = {name for name in proc.stderr.split() if name.startswith("compalg")}
    # the CLI itself runs as __main__
    assert loaded == {"compalg", "compalg.errors", "compalg.zmodule"}


def test_clifford_product_does_not_load_weyl():
    env = dict(os.environ, PYTHONPATH=str(Path(compalg.__file__).resolve().parents[1]))
    argv = ["clifford", "product", "--sig", "2,0", "--x", "e1", "--y", "e2"]
    proc = subprocess.run(
        [sys.executable, "-c", LIST_MODULES, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, '{"12":"1"}\n'), proc.stderr
    loaded = set(proc.stderr.split())
    assert "compalg.clifford" in loaded and "compalg.weyl" not in loaded


def test_public_names_resolve_on_first_use():
    namespace = {}
    exec("from compalg import *", namespace)
    for name in compalg.__all__:
        assert getattr(compalg, name) is namespace[name]
        assert getattr(compalg, name) is getattr(sys.modules[namespace[name].__module__], name)
    assert set(compalg.__all__) <= set(dir(compalg))
    with pytest.raises(AttributeError):
        compalg.no_such_name


def test_error_paths(capsys):
    code, _, err = run(capsys, "quat", "norm", "--field", "Fp:4", "--a", "1", "--b", "-1", "--x", "1,0,0,0")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValueError"
    code, _, err = run(capsys, "poincare", "hirsch", "--g", "BC:3", "--u", "U1SU:2")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "RankMismatchError"
    code, _, err = run(capsys, "span", "rank")
    assert code == 1
    assert "input" in json.loads(err)["error"]["message"].lower() or "fixture" in json.loads(err)["error"]["message"].lower()


def test_quat_actions(capsys):
    code, out, _ = run(
        capsys, "quat", "mul", "--field", "Q", "--a", "-1", "--b", "-1",
        "--x", "0,1,0,0", "--y", "0,0,1,0",
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "0", "0", "1"]
    code, out, _ = run(
        capsys, "quat", "is-split", "--field", "Q", "--a", "2", "--b", "-1", "--output", "text"
    )
    assert out == "split"


CHAR2_MAT2 = {
    "algebra": {"field": {"kind": "Fp", "p": 2}, "mat2": True},
    "m": 1,
    "n": 1,
    "blocks": [[[1, 1], [0, 1]]],
}


def test_mat_actions(capsys):
    code, out, _ = run(capsys, "mat", "study-det", "--fixture", "z2")
    assert code == 0
    assert json.loads(out) == {"study_det": "0"}
    code, out, _ = run(capsys, "mat", "invertible", "--fixture", "z1", "--output", "text")
    assert out == "true"


def test_mat_study_det_in_characteristic_two(capsys):
    code, out, err = run(capsys, "mat", "study-det", "--input", json.dumps(CHAR2_MAT2))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"study_det": 1}
    code, out, _ = run(capsys, "mat", "invertible", "--input", json.dumps(CHAR2_MAT2))
    assert json.loads(out) == {"invertible": True}


def test_input_reads_a_file(capsys, tmp_path):
    # --input FILE: z1's matrix from a file; a missing path and a file that is not JSON are CliErrors
    from compalg.corpus import load_fixture

    good, bad = tmp_path / "z1.json", tmp_path / "bad.json"
    good.write_text(json.dumps(load_fixture("z1")["matrix"]))
    bad.write_text("{bad")
    code, out, err = run(capsys, "span", "rank", "--input", str(good))
    assert (code, json.loads(out), err) == (0, {"rank": 2}, "")
    for path, message in ((tmp_path / "missing.json", "cannot read"), (bad, "is not valid JSON")):
        code, out, err = run(capsys, "span", "rank", "--input", str(path))
        _assert_one_json_error(code, out, err, path)
        assert json.loads(err)["error"]["type"] == "CliError" and message in json.loads(err)["error"]["message"]


def test_failed_self_check_exits_with_a_property_violation(capsys, monkeypatch):
    from compalg import zmodule

    def fail(*_):
        raise AssertionError("D is not diagonal with d1 | d2 | ...")

    monkeypatch.setattr(zmodule, "_check_diagonal", fail)
    code, out, err = run(capsys, "zmod", "snf", "--input", "[[2,4,4],[-6,6,12]]")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "PropertyViolation", "message": "D is not diagonal with d1 | d2 | ..."}}


def test_weyl_actions(capsys):
    code, out, _ = run(capsys, "weyl", "index", "--g", "Sym:4", "--h", "Sym:2*Sym:2")
    assert json.loads(out) == {"index": 6}
    code, out, _ = run(capsys, "weyl", "ktheory", "--pair", "one-dim-split")
    assert json.loads(out) == {"rank": 2}
    code, out, _ = run(capsys, "weyl", "ktheory", "--pair", "quaternionic", "--n", "3")
    assert json.loads(out) == {"rank": 120}
    code, out, _ = run(capsys, "weyl", "reynolds", "--group", "BC:1", "--poly", "x1", "--output", "text")
    assert out == "1/2*x1 + 1/2*x1^-1"


def test_verify_generation_over_budget_exits_cleanly(capsys):
    code, out, _ = run(capsys, "weyl", "verify-generation", "--flavor", "Hyperoctahedral", "--n", "4", "--bound", "6")
    assert json.loads(out) == {
        "flavor": "Hyperoctahedral", "n": 4, "degree_bound": 6, "checked": 210, "expressible": 210, "inconclusive": []
    }
    for flags in (("--n", "9", "--bound", "1"), ("--n", "2", "--bound", "10000000")):
        argv = ("weyl", "verify-generation", "--flavor", "Sym", *flags)
        code, out, err = run(capsys, *argv)
        _assert_one_json_error(code, out, err, argv)
        assert json.loads(err)["error"]["type"] == "InfeasibleError"


def test_verify_bound_over_the_estimated_budget_exits_cleanly(capsys):
    argv = ("span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1", "--m", "4", "--n", "4", "--d", "1",
            "--trials", "10", "--budget-ms", "1")
    code, out, err = run(capsys, *argv)
    _assert_one_json_error(code, out, err, argv)
    assert json.loads(err)["error"] == {
        "type": "InfeasibleError", "message": "estimated work 739840 exceeds the budget of 1 ms"
    }


@pytest.mark.parametrize("variable, argv, expected", [
    ("abc", ("quat", "is-split", "--field", "Q", "--a", "-1", "--b", "-1"), "invalid nonnegative value: 'abc'"),
    ("-5", ("quat", "is-split", "--field", "Q", "--a", "-1", "--b", "-1"), "must be a non-negative integer, got -5"),
    (None, ("span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1", "--m", "2", "--n", "2", "--d", "1",
            "--budget-ms", "-3"), "must be a non-negative integer, got -3"),
])
def test_malformed_budget_exits_cleanly(capsys, monkeypatch, variable, argv, expected):
    if variable is None:
        monkeypatch.delenv("COMPALG_BUDGET_MS", raising=False)
    else:
        monkeypatch.setenv("COMPALG_BUDGET_MS", variable)
    code, out, err = run(capsys, *argv)
    _assert_one_json_error(code, out, err, argv)
    assert json.loads(err)["error"] == {"type": "CliError", "message": f"argument --budget-ms: {expected}"}


@pytest.mark.parametrize("value, expected", [
    ("-1", "must be an integer in [0, 2^64), got -1"),
    ("18446744073709551616", "must be an integer in [0, 2^64), got 18446744073709551616"),
    ("abc", "invalid seed value: 'abc'"),
])
def test_out_of_range_seed_exits_cleanly(capsys, value, expected):
    # SplitMix64 keeps 64 bits, so a seed outside [0, 2^64) would alias another one
    for argv in (("span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1", "--m", "2", "--n", "2", "--d", "1",
                  "--trials", "1", "--seed", value),
                 ("clifford", "spin-check", "--p", "1", "--q", "1", "--count", "2", "--seed", value)):
        code, out, err = run(capsys, *argv)
        _assert_one_json_error(code, out, err, argv)
        assert json.loads(err)["error"] == {"type": "CliError", "message": f"argument --seed: {expected}"}


def test_seed_bounds_are_accepted(capsys):
    for value in ("0", str(2**64 - 1)):
        code, out, _ = run(capsys, "span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1", "--m", "2",
                           "--n", "2", "--d", "1", "--trials", "1", "--seed", value)
        assert code == 0 and json.loads(out)["params"]["seed"] == int(value)


def test_spin_check(capsys):
    code, out, _ = run(
        capsys, "clifford", "spin-check", "--p", "1", "--q", "2", "--count", "10", "--seed", "5"
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_malformed_matrix_payloads_exit_cleanly(capsys):
    quat_q = {"field": {"kind": "Q"}, "a": "-1", "b": "-1"}
    payloads = (
        ({"m": 1, "n": 1}, "'algebra'"),
        ({"algebra": quat_q, "m": 1, "n": 1, "entries": [["1", "0", "0"]]}, "4 coefficients"),
        ([1], "must be a JSON object"),
        ({"matrix": [1]}, "must be a JSON object"),
        ({"algebra": {"field": {"kind": "Q"}, "mat2": True}, "m": 1, "n": 1, "blocks": [[[1]]]}, "block 0 must be a 2x2"),
        ({"algebra": quat_q, "m": 1, "n": 2, "entries": [["1", "0", "0", "0"], 5]}, "block 1 must be a 2x2"),
        ({"algebra": 5, "m": 1, "n": 1, "entries": [5]}, "'algebra' must be a JSON object"),
        ({"algebra": {"field": 5}, "m": 1, "n": 1, "entries": [5]}, "'field' must be a JSON object"),
        ({"algebra": {"field": {"kind": "Fp", "p": "7"}, "a": 1, "b": 1}, "m": 1, "n": 1, "entries": [5]}, "'p' must be an integer"),
        ({"algebra": {"field": {"kind": "Q"}, "a": [1], "b": 1}, "m": 1, "n": 1, "entries": [5]}, "must be an integer or a string"),
        ({"algebra": quat_q, "m": 1, "n": 1, "entries": [[0.1, 0, 0, 0]]}, "got 0.1"),
        ({"algebra": quat_q, "m": 1, "n": 1, "entries": [["1e3", "0", "0", "0"]]}, "got '1e3'"),
        ({"algebra": quat_q, "m": 1.5, "n": 2, "entries": [["1", "0", "0", "0"]] * 3}, "'m' must be a positive integer, got 1.5"),
        ({"algebra": quat_q, "m": True, "n": 1, "entries": [["1", "0", "0", "0"]]}, "'m' must be a positive integer, got True"),
        ({"algebra": quat_q, "m": 1, "n": 0, "entries": []}, "'n' must be a positive integer, got 0"),
        ({"algebra": {"field": {"kind": "quad", "base": {"kind": "Q"}, "a": "2"}, "a": 5, "b": 1}, "m": 1, "n": 1, "entries": [5]}, "must be a pair"),
    )
    cases = [("study-det", payload, expected) for payload, expected in payloads]
    cases.append(("sympl", CHAR2_MAT2, "doubling representation needs characteristic != 2"))
    for action, payload, expected in cases:
        code, out, err = run(capsys, "mat", action, "--input", json.dumps(payload))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert expected in json.loads(lines[0])["error"]["message"]


def test_malformed_integer_matrices_exit_cleanly(capsys):
    cases = (
        (["snf", "--input", "[[1.5, 2]]"], "--input entry [0][0] must be an integer, got 1.5"),
        (["snf", "--input", "[[true]]"], "--input entry [0][0] must be an integer, got True"),
        (["snf", "--input", '[["7"]]'], "--input entry [0][0] must be an integer, got '7'"),
        (["snf", "--input", '{"rows": 5}'], "--input must be a non-empty list of rows, got 5"),
        (["snf", "--input", "[1, 2]"], "--input row 0 must be a non-empty list, got 1"),
        (["snf", "--input", "[[1, 2], [3]]"], "--input row 1 has 1 entries, row 0 has 2"),
        (["sequence-check", "--f", "[[1], [0]]", "--g", "[[0, 1.0]]"], "--g entry [0][1]"),
    )
    for argv, expected in cases:
        code, out, err = run(capsys, "zmod", *argv)
        assert code == 1, argv
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert expected in json.loads(lines[0])["error"]["message"], argv


def test_malformed_clifford_arguments_exit_cleanly(capsys):
    cases = (
        (["product", "--x", "e1", "--y", "e1"], "needs --sig"),
        (["product", "--sig", "2", "--x", "e1", "--y", "e1"], "two counts p,q"),
        (["classify"], "needs --p and --q"),
        (["classify", "--p", "1"], "needs --p and --q"),
        (["verify", "--p", "1"], "needs --p and --q"),
        (["spin-check", "--p", "2"], "needs --p and --q"),
        (["spin-check", "--p", "0", "--q", "0"], "p + q >= 1"),
        (["product", "--sig", "2,0", "--y", "e1"], "needs --x"),
        (["membership", "--sig", "2,0"], "needs --x"),
        (["product", "--sig", "2,0", "--x", "e9", "--y", "e1"], "blade index 9 is outside 1..2"),
        (["product", "--sig", "2,0", "--x", "e0", "--y", "e1"], "blade index 0 is outside 1..2"),
        (["product", "--sig", "2,0", "--x", "e11", "--y", "e1"], "blade index 1 is repeated"),
        (["product", "--sig", "2,0", "--x=e-1", "--y", "e1"], "cannot parse blade 'e' in term 'e'"),
        (["product", "--sig", "2,0", "--x", "2*e", "--y", "e1"], "in term '2*e'"),
        (["product", "--sig", "2,0", "--x", "ex", "--y", "e1"], "in term 'ex'"),
        (["product", "--sig", "2,0", "--x", "e1x", "--y", "e1"], "in term 'e1x'"),
        (["product", "--sig", "2,0", "--x", "2*", "--y", "e1"], "nothing on one side in term '2*'"),
        (["product", "--sig", "2,0", "--x", "*e1", "--y", "e1"], "nothing on one side in term '*e1'"),
        (["product", "--sig", "2,0", "--x", "e1 +", "--y", "e1"], "'e1 +' ends with a sign"),
        (["product", "--sig", "2,0", "--x", "e1 + + e2", "--y", "e1"], "two signs in a row in term '++e2'"),
        (["product", "--sig", "2,0", "--x", "e1 - - e2", "--y", "e1"], "two signs in a row in term '--e2'"),
        (["product", "--sig", "2,0", "--x", "+-e1", "--y", "e1"], "two signs in a row in term '+-e1'"),
        (["product", "--sig", "2,0", "--x", "e 1", "--y", "e1"], "cannot parse blade 'e 1' in term 'e 1'"),
        (["product", "--sig", "2,0", "--x", "1.5*e1", "--y", "e1"], "in term '1.5*e1'"),
        (["product", "--sig", "2,0", "--x", "2*3*e1", "--y", "e1"], "cannot parse blade '3*e1' in term '2*3*e1'"),
    )
    for argv, expected in cases:
        code, out, err = run(capsys, "clifford", *argv)
        assert code == 1, argv
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert expected in json.loads(lines[0])["error"]["message"], argv


def test_membership_of_singular_element_answers_false(capsys):
    code, out, err = run(capsys, "clifford", "membership", "--sig", "1,1", "--x", "1 + e1")
    assert code == 0 and err == ""
    assert json.loads(out) == {"in_gamma": False, "in_even_part": False, "spin_witness": None}


def _parser_actions():
    """Every (command, action) pair the parser accepts."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, choice)
        for command, sub in commands.choices.items()
        for choice in next(a for a in sub._actions if a.dest == "action").choices
    ]


def _assert_one_json_error(code, out, err, argv):
    assert code == 1, argv
    assert out == "", argv
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, argv
    assert json.loads(lines[0])["error"]["message"], argv


# tests/golden/cli.json pins whole outputs, one record per call; CI runs the
# same records through the installed `compalg` executable
@pytest.mark.parametrize("record", RECORDS, ids=label)
def test_pinned_output(capsys, monkeypatch, record):
    for variable, value in record.get("env", {}).items():
        monkeypatch.setenv(variable, value)
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    why = mismatch(record, code, captured.out, captured.err)
    assert why is None, why


def test_pinned_outputs_are_one_record_per_known_call():
    calls = [(tuple(record["argv"]), tuple(sorted(record.get("env", {}).items()))) for record in RECORDS]
    assert len(set(calls)) == len(calls), [call for call in calls if calls.count(call) > 1]
    actions = set(_parser_actions())
    for record in RECORDS:
        assert tuple(record["argv"][:2]) in actions, record
        assert ("stdout" in record) != ("error" in record), record
        assert set(record) <= {"argv", "env", "exit", "stdout", "error"}, record


def test_every_action_without_flags_exits_cleanly(capsys):
    pairs = _parser_actions()
    assert len(pairs) == 32
    for command, action in pairs:
        code, out, err = run(capsys, command, action)
        _assert_one_json_error(code, out, err, (command, action))


# One call per action that answers (exit 0, or 2 for an observed violation);
# every flag of it is dropped in turn.
WORKING_CALLS = [
    "quat mul --field Q --a -1 --b -1 --x 1,2,3,4 --y 0,1,0,0",
    "quat norm --field Q --a -1 --b -1 --x 1,2,3,4",
    "quat conjugate --field Q --split --x 1,2,3,4",
    "quat inverse --field Fp:5 --a 2 --b 3 --x 1,2,3,4",
    "quat is-split --field Q --a 2 --b -1",
    "mat study-det --fixture z1",
    "mat sympl --fixture z1",
    "mat invertible --fixture z2",
    "mat flatten --fixture z3",
    "mat split-pair --input {\"algebra\":{\"field\":{\"kind\":\"Q\"},\"mat2\":true},\"m\":1,\"n\":1,\"blocks\":[[[1,0],[0,2]]]}",
    "span rank --fixture z1",
    "span bound --field Q --a -1 --b -1 --m 2 --n 2 --d 1",
    "span verify-bound --field Fp:2 --split --m 1 --n 1 --d 1 --trials 2 --seed 7",
    "poincare hirsch --g BC:3 --u U1SU:3",
    "poincare product-form --space sp-u1su --n 2",
    "poincare gaussian --n 4 --k 2 --step 1",
    "poincare grassmann --p 2 --q 2",
    "poincare oriented-grassmann --m 4 --k 2",
    "poincare clifford-gamma --n 3 --p 2 --q 1",
    "weyl index --g Sym:4 --h Sym:2*Sym:2",
    "weyl ktheory --pair quaternionic --n 2",
    "weyl reynolds --group BC:1 --poly x1",
    "weyl generators --flavor Sym --n 2",
    "weyl verify-generation --flavor Sym --n 2 --bound 3",
    "zmod snf --input [[2,0],[0,3]]",
    "zmod loc-model --n 2 --smax 5 --signs ++-",
    "zmod sequence-check --f [[2]] --g [[3]]",
    "clifford classify --p 1 --q 1",
    "clifford verify --p 1 --q 1",
    "clifford product --sig 2,0 --x e1 --y e2",
    "clifford membership --sig 2,0 --x e1",
    "clifford spin-check --p 1 --q 1 --count 2 --seed 3",
]


def test_every_action_missing_one_flag_exits_cleanly(capsys):
    calls = [call.split(" ") for call in WORKING_CALLS]
    assert sorted(tuple(argv[:2]) for argv in calls) == sorted(_parser_actions())
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2) and err == "", (argv, err)
        flags = [i for i, token in enumerate(argv) if token.startswith("--")]
        for i in flags:
            width = 1 if argv[i] == "--split" else 2
            dropped = argv[:i] + argv[i + width :]
            code, out, err = run(capsys, *dropped)
            if code == 1:
                _assert_one_json_error(code, out, err, dropped)


@pytest.mark.parametrize(
    "call,expected",
    [
        ("weyl index --g {} --h Sym:1", "group key 'flavor' must be a string, got None"),
        ("weyl index --g [1] --h Sym:1", "a group must be a JSON object, got [1]"),
        ('weyl index --g {"product":5} --h Sym:1', "group key 'product' must be a list of groups"),
        ('weyl index --g {"flavor":"Sym","n":"3"} --h Sym:1', "group key 'n' must be a non-negative"),
        ('weyl index --g {"flavor":3,"n":2} --h Sym:1', "group key 'flavor' must be a string, got 3"),
        ("weyl generators --flavor Sym --n -1", "argument --n: must be a non-negative integer, got -1"),
        ("weyl verify-generation --flavor Sym --n 2 --bound -1", "argument --bound: must be"),
        ("clifford spin-check --p 1 --q 0 --count -3", "argument --count: must be"),
        ("span verify-bound --field Q --a -1 --b -1 --m 2 --n 2 --d 2 --trials -1", "argument --trials: must be"),
        ("span bound --field Q --a -1 --b -1 --m 2 --n -3 --d 1", "argument --n: must be"),
        # a family of n columns needs m <= n rows, as verify-bound and low_rank_combination say
        ("span bound --field Q --a -1 --b -1 --m 2 --n 0 --d 1", "shapes must satisfy m <= n"),
        ("span bound --field Q --a -1 --b -1 --m 2 --n 1 --d 1", "shapes must satisfy m <= n"),
        ("span verify-bound --field Q --a -1 --b -1 --m 1 --n 1 --d 1 --entry-bound -1", "argument --entry-bound: must be"),
        ("poincare gaussian --n -1 --k 0", "argument --n: must be a non-negative integer, got -1"),
        ("zmod loc-model --n -1 --smax 3", "argument --n: must be"),
        ("zmod loc-model --n 0 --smax 3 --signs +", "need n >= 1"),
        ("weyl reynolds --group Sym:2 --poly *x1", "a '*' with nothing on one side in term '*x1'"),
        ("weyl reynolds --group Sym:2 --poly x1+", "'x1+' ends with a sign"),
        ("weyl reynolds --group Sym:2 --poly x1++x2", "two signs in a row in term '++x2'"),
        ("weyl reynolds --group Sym:2 --poly 1/0*x1", "a zero denominator in term '1/0*x1'"),
        ("weyl index --g BC:x --h Sym:3", "group token 'BC:x' needs an integer count, got 'x'"),
        ("quat is-split --field Fp:x --a 1 --b 1", "--field token 'Fp:x' needs an integer prime, got 'x'"),
        ("clifford product --sig 2,x --x e1 --y e1", "--sig '2,x' needs integer counts p,q, got 'x'"),
        # quaternion scalars follow the literal rule of the JSON scalar schema
        ("quat is-split --field Q --a 1e3 --b -1", "--a must be p or p/q with q != 0, got '1e3'"),
        ("quat mul --field Q --a -1 --b -1 --x 1.5,0,0,0 --y 1,0,0,0", "--x must be p or p/q with q != 0, got '1.5'"),
        ("quat mul --field Q --a -1 --b -1 --x 1,0,0,0 --y 1/0,0,0,0", "--y must be p or p/q with q != 0, got '1/0'"),
    ]
    # an unknown action is refused by the parser, before any handler runs
    + [(f"{command} bogus", "invalid choice: 'bogus'") for command in ("quat", "mat", "span", "poincare", "weyl", "zmod", "clifford")],
)
def test_malformed_groups_and_negative_counts_exit_cleanly(capsys, call, expected):
    code, out, err = run(capsys, *call.split(" "))
    _assert_one_json_error(code, out, err, call)
    assert expected in json.loads(err)["error"]["message"]


# Every option of every subcommand, as (type, default, choices); "action" is the
# positional.  Only poincare's --n and span's --entry-bound changed type when one
# table came to declare the commands: both were int, and are now non-negative.
TEXT, INT, COUNT = (None, None, None), ("int", None, None), ("nonnegative", None, None)
COMMON = {"--output": (None, "json", ("json", "text", "latex")), "--seed": ("seed", 0, None),
          "--budget-ms": ("nonnegative", 60_000, None)}
ALGEBRA = {"--field": TEXT, "--a": TEXT, "--b": TEXT, "--split": (None, False, None)}
INTERFACE = {
    "quat": {**COMMON, **ALGEBRA, "--x": TEXT, "--y": TEXT,
             "action": (None, None, ("mul", "norm", "conjugate", "inverse", "is-split"))},
    "mat": {**COMMON, "--input": TEXT, "--fixture": TEXT,
            "action": (None, None, ("study-det", "sympl", "invertible", "flatten", "split-pair"))},
    "span": {**COMMON, **ALGEBRA, "--input": TEXT, "--fixture": TEXT, "--m": INT, "--n": COUNT, "--d": INT,
             "--trials": ("nonnegative", 10, None), "--entry-bound": ("nonnegative", 3, None),
             "action": (None, None, ("rank", "bound", "verify-bound"))},
    "poincare": {**COMMON, "--g": TEXT, "--u": TEXT, "--space": TEXT, "--n": COUNT, "--k": INT, "--m": INT,
                 "--p": INT, "--q": INT, "--step": ("int", 1, (1, 2)),
                 "action": (None, None, ("hirsch", "product-form", "gaussian", "grassmann", "oriented-grassmann",
                                         "clifford-gamma"))},
    "weyl": {**COMMON, "--g": TEXT, "--h": TEXT, "--pair": TEXT, "--n": COUNT, "--group": TEXT, "--poly": TEXT,
             "--flavor": TEXT, "--bound": COUNT,
             "action": (None, None, ("index", "ktheory", "reynolds", "generators", "verify-generation"))},
    "zmod": {**COMMON, "--input": TEXT, "--f": TEXT, "--g": TEXT, "--n": COUNT, "--smax": INT,
             "--signs": (None, "", None), "action": (None, None, ("snf", "loc-model", "sequence-check"))},
    "clifford": {**COMMON, "--p": INT, "--q": INT, "--sig": TEXT, "--x": TEXT, "--y": TEXT,
                 "--count": ("nonnegative", 20, None),
                 "action": (None, None, ("classify", "verify", "product", "membership", "spin-check"))},
}


def test_every_subcommand_takes_its_pinned_options_and_prints_help(capsys, monkeypatch):
    monkeypatch.delenv("COMPALG_BUDGET_MS", raising=False)
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(INTERFACE)
    for command, sub in commands.items():
        options = {
            (a.option_strings[0] if a.option_strings else a.dest): (getattr(a.type, "__name__", None), a.default, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert options == INTERFACE[command], command
    for argv in [[]] + [[command] for command in INTERFACE]:
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--help"])
        assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: compalg"), argv
