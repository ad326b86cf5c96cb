import argparse
import json

import pytest

from compalg.cli import build_parser, main


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


def test_clifford_classify_exact_bytes(capsys):
    code, out, _ = run(capsys, "clifford", "classify", "--p", "1", "--q", "1")
    assert code == 0
    assert out == '{"base":"R","matrix_size":2,"direct_sum":false}'


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
    code, out, _ = run(capsys, "clifford", "product", "--sig", "2,0", "--x", "e1", "--y", "e2")
    assert code == 0
    assert json.loads(out) == {"12": "1"}
    code, out, _ = run(capsys, "clifford", "product", "--sig", "0,2", "--x", "e12", "--y", "e12")
    assert json.loads(out) == {"0": "-1"}


def test_determinism_same_seed(capsys):
    args = (
        "span", "verify-bound", "--field", "Q", "--a", "-1", "--b", "-1",
        "--m", "2", "--n", "2", "--d", "2", "--trials", "5", "--seed", "11",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


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


def test_weyl_actions(capsys):
    code, out, _ = run(capsys, "weyl", "index", "--g", "Sym:4", "--h", "Sym:2*Sym:2")
    assert json.loads(out) == {"index": 6}
    code, out, _ = run(capsys, "weyl", "ktheory", "--pair", "one-dim-split")
    assert json.loads(out) == {"rank": 2}
    code, out, _ = run(capsys, "weyl", "ktheory", "--pair", "quaternionic", "--n", "3")
    assert json.loads(out) == {"rank": 120}
    code, out, _ = run(capsys, "weyl", "reynolds", "--group", "BC:1", "--poly", "x1", "--output", "text")
    assert out == "1/2*x1 + 1/2*x1^-1"


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
        ("zmod loc-model --n -1 --smax 3", "argument --n: must be"),
    ],
)
def test_malformed_groups_and_negative_counts_exit_cleanly(capsys, call, expected):
    code, out, err = run(capsys, *call.split(" "))
    _assert_one_json_error(code, out, err, call)
    assert expected in json.loads(err)["error"]["message"]
