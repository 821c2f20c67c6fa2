import json

import pytest

from chainsynth.cli import main

from conftest import UNNAMED_OPTIONS, singular_cycle_family, toy_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_violated(capsys):
    code, out, _ = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2,k3=2", "--spec", "P>=0.1 [F s=4]")
    assert code == 1
    assert "violated" in out and "value     0" in out


def test_check_satisfied(capsys):
    code, out, _ = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]")
    assert code == 0
    assert "satisfied" in out


def test_check_partial_assignment_is_error(capsys):
    code, _, err = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2", "--spec", "P>=0.1 [F s=4]")
    assert code == 2
    assert "k3" in err


def test_bad_spec_is_error(capsys):
    code, _, err = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2,k3=4", "--spec", "P=0.1 [F s=4]")
    assert code == 2 and "spec" in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "check", "--input", "no_such_file.sk",
                       "--assign", "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]")
    assert code == 2


def test_goal_matching_nothing_is_error(capsys):
    code, _, err = run(capsys, "synth", "feasible", "--input", toy_path(),
                       "--spec", "P>=0.1 [F s=77]")
    assert code == 2 and "matches no state" in err


@pytest.mark.parametrize("argv", [
    ("max", "--goal", "s=4 s=0"),
    ("max", "--goal", "s=4 )"),
    ("feasible", "--spec", "P>=0.1 [F s=4 s=0]"),
])
def test_goal_with_trailing_input_exits_2(capsys, argv):
    code, out, err = run(capsys, "synth", *argv, "--input", toy_path())
    assert code == 2 and not out
    assert err.startswith("error: 1:5: trailing input")


def test_threshold_out_of_range_is_error(capsys):
    code, _, err = run(capsys, "synth", "feasible", "--input", toy_path(),
                       "--spec", "P>=2 [F s=4]")
    assert code == 2


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
def test_synth_partition_json(capsys, engine):
    code, out, _ = run(capsys, "synth", "partition", "--input", toy_path(),
                       "--spec", "P>=0.1 [F s=4]", "--engine", engine,
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"query", "engine", "outcome", "stats"}
    assert doc["engine"] == engine
    assert doc["outcome"]["kind"] == "partition"
    assert sorted(tuple(sorted(w.items())) for w in doc["outcome"]["T"]) == [
        (("k2", "2"), ("k3", "4")), (("k2", "3"), ("k3", "4"))]
    assert set(doc["stats"]) == {"candidates", "checks", "iterations",
                                 "wall_ms"}


def test_synth_outputs_stable_modulo_timing(capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, "synth", "partition", "--input", toy_path(),
                        "--spec", "P>=0.1 [F s=4]", "--engine", "cegis",
                        "--json")
        doc = json.loads(out)
        doc["stats"].pop("wall_ms")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_synth_budgeted_max(capsys):
    code, out, _ = run(capsys, "synth", "max", "--input", toy_path(),
                       "--goal", "s=4", "--cost", "structural",
                       "--budget", "9", "--engine", "enum", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"]["witness"] == {"k2": "2", "k3": "2"}
    assert doc["outcome"]["value"] == 0.0
    assert doc["outcome"]["cost"] == 8


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
def test_synth_partition_text(capsys, engine):
    code, out, _ = run(capsys, "synth", "partition", "--input", toy_path(),
                       "--spec", "P>=0.1 [F s=4]", "--engine", engine)
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == ["outcome   partition (|T|=2, |F|=2)",
                         "  T  k2=2,k3=4", "  T  k2=3,k3=4",
                         "  F  k2=2,k3=2", "  F  k2=3,k3=2"]
    assert lines[5].startswith("stats     candidates=4 ") and len(lines) == 6


def test_synth_budgeted_max_text(capsys):
    code, out, _ = run(capsys, "synth", "max", "--input", toy_path(),
                       "--goal", "s=4", "--cost", "structural",
                       "--budget", "9")
    assert code == 0
    assert out.splitlines()[:4] == ["outcome   witness",
                                    "witness   k2=2,k3=2", "value     0",
                                    "cost      8"]


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--input", toy_path(), "--assign",
                       "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]", "--json")
    assert code == 0
    assert json.loads(out) == {"assignment": {"k2": "2", "k3": "4"},
                               "value": pytest.approx(1.0), "sat": True}


@pytest.mark.parametrize("label, value", [
    ("-(1)", 0.0), ("1 + (2 * 0)", 0.0), ("(1 + 2) * 1", 1.0)])
def test_check_accepts_unnamed_option_labels(capsys, tmp_path, label, value):
    path = tmp_path / "options.sk"
    path.write_text(UNNAMED_OPTIONS)
    code, out, _ = run(capsys, "check", "--input", str(path), "--assign",
                       "k=" + label, "--spec", "P>=0 [F s=4]", "--json")
    assert code == 0
    assert json.loads(out) == {"assignment": {"k": label},
                               "value": pytest.approx(value), "sat": True}


def test_synth_unsat_exit_code(capsys):
    code, out, _ = run(capsys, "synth", "feasible", "--input", toy_path(),
                       "--spec", "P<=0.1 [F s=1]")
    assert code == 1
    assert "unsatisfiable" in out


def test_synth_feasible_witness(capsys):
    code, out, _ = run(capsys, "synth", "feasible", "--input", toy_path(),
                       "--spec", "P>=0.1 [F s=4]", "--engine", "cegis")
    assert code == 0
    assert "witness" in out


def test_json_family_input(capsys, tmp_path, example_family):
    from chainsynth import jsonio
    path = tmp_path / "fam.json"
    path.write_text(jsonio.dumps(example_family))
    code, out, _ = run(capsys, "synth", "partition", "--input", str(path),
                       "--spec", "P>=0.1 [F s=4]", "--json")
    assert code == 0
    assert len(json.loads(out)["outcome"]["T"]) == 2


def test_max_states_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CHAINSYNTH_MAX_STATES", "2")
    code, _, err = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]")
    assert code == 2
    assert "exceeds" in err


def test_max_states_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CHAINSYNTH_MAX_STATES", "many")
    code, _, err = run(capsys, "check", "--input", toy_path(),
                       "--assign", "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]")
    assert code == 2
    assert "CHAINSYNTH_MAX_STATES" in err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_max_states_env_must_be_positive(capsys, monkeypatch, bound):
    # not "state space exceeds 0 valuations": the bound itself is refused
    monkeypatch.setenv("CHAINSYNTH_MAX_STATES", bound)
    code, out, err = run(capsys, "check", "--input", toy_path(),
                         "--assign", "k2=2,k3=4", "--spec", "P>=0.1 [F s=4]")
    assert (code, out) == (2, "")
    assert "CHAINSYNTH_MAX_STATES" in err and "exceeds" not in err


@pytest.mark.parametrize("assign, hole", [
    ("k2=2,k3=4,zz=1", "zz"),  # a hole the family does not have
    ("k2=2,k3=4,k2=3", "k2"),  # the same hole twice
    ("k2=2,k3=4,k2=2", "k2"),
])
def test_check_refuses_a_malformed_assignment(capsys, assign, hole):
    code, out, err = run(capsys, "check", "--input", toy_path(), "--json",
                         "--assign", assign, "--spec", "P>=0.1 [F s=4]")
    assert (code, out) == (2, "")
    assert "hole %s" % hole in err


def test_malformed_json_family_is_error(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text('{"states": 2,')
    code, _, err = run(capsys, "synth", "partition", "--input", str(path),
                       "--spec", "P>=0.1 [F s=1]")
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("text", [
    '{"states": "x", "init": 0, "holes": [], "transitions": []}',
    '[1, 2]',
])
def test_wrongly_shaped_json_family_is_error(capsys, tmp_path, text):
    path = tmp_path / "fam.json"
    path.write_text(text)
    code, out, err = run(capsys, "synth", "partition", "--input", str(path),
                         "--spec", "P>=0.1 [F s=1]")
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("min", "--goal", "s=4", "--epsilon", "1"),
    ("partition", "--spec", "P>=0.1 [F s=4]", "--epsilon", "0.5"),
    ("max", "--goal", "s=4", "--spec", "P>=0.1 [F s=4]"),
    ("max", "--goal", "s=4", "--cost", "structural"),
    ("max", "--goal", "s=4", "--tolerance", "0.1"),
])
def test_refused_query_flags_exit_2(capsys, argv):
    code, out, err = run(capsys, "synth", *argv, "--input", toy_path())
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
@pytest.mark.parametrize("argv", [
    ("check", "--assign", "k2=2,k3=4", "--spec", "P>=0.0 [F s=4]"),
    ("synth", "partition", "--spec", "P<=0.4 [F s=4]"),
])
def test_bad_tolerance_exits_2(capsys, argv, tolerance):
    code, out, err = run(capsys, *argv, "--input", toy_path(),
                         "--tolerance", tolerance)
    assert code == 2 and not out
    assert err.startswith("error: ") and "tolerance" in err


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
@pytest.mark.parametrize("constraint", [
    "(foo h a)",  # unknown operator
    "(",  # truncated
    "(= zz a)",  # undeclared hole
    "(= h zz)",  # undeclared option
])
def test_bad_constraint_in_json_family_is_error(capsys, tmp_path, engine,
                                                constraint):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({
        "states": 2, "init": 0,
        "holes": [{"name": "h", "options": ["a", "b"]}],
        "transitions": [
            {"from": 0, "branches": [
                {"p": 1.0, "hole": "h", "table": {"a": 0, "b": 1}}]},
            {"from": 1, "branches": [{"p": 1.0, "fixed": 1}]}],
        "constraints": [constraint]}))
    code, out, err = run(capsys, "synth", "partition", "--input", str(path),
                         "--spec", "P>=0.5 [F s=1]", "--engine", engine)
    assert code == 2 and not out
    assert err.startswith("error: ")


def json_family(init=0, fixed=1, table_b=1, costs=(0, 0)):
    return json.dumps({
        "states": 2, "init": init,
        "holes": [{"name": "h", "options": ["a", "b"], "costs": list(costs)}],
        "transitions": [
            {"from": 0, "branches": [
                {"p": 0.5, "hole": "h", "table": {"a": 0, "b": table_b}},
                {"p": 0.5, "fixed": fixed}]},
            {"from": 1, "branches": [{"p": 1.0, "fixed": 1}]}]})


@pytest.mark.parametrize("family, flags, message", [
    (json_family(fixed=1.5), (), "successor 1.5 outside S"),
    (json_family(table_b=0.5), (), "successor 0.5 outside S"),
    (json_family(init=0.5), (), "initial state 0.5 outside S"),
    (json_family(init=5), (), "initial state 5 outside S"),
    (json_family(costs=("x", "y")), ("--budget", "1", "--cost", "optionsum"),
     "costs must be natural numbers"),
], ids=["fixed-float", "table-float", "init-float", "init-out-of-range",
        "string-costs"])
def test_malformed_json_family_values_exit_2(capsys, tmp_path, family, flags,
                                             message):
    path = tmp_path / "fam.json"
    path.write_text(family)
    code, out, err = run(capsys, "synth", "feasible", "--input", str(path),
                         "--spec", "P>=0.5 [F s=1]", "--engine", "cegar",
                         *flags)
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("engine", ["enum", "cegis"])
def test_singular_solve_exits_2(capsys, tmp_path, engine):
    from chainsynth import jsonio
    path = tmp_path / "fam.json"
    path.write_text(jsonio.dumps(singular_cycle_family()))
    code, out, err = run(capsys, "synth", "max", "--input", str(path),
                         "--goal", "s=3", "--engine", engine)
    assert code == 2 and not out
    assert err.startswith("error: ")


BAD_BRANCHES_SKETCH = """module m
s : [0..2] init 0;
s < 2 -> %s;
s = 2 -> 1: s'=2;
endmodule
"""


def json_branches(*probs):
    return json.dumps({
        "states": 2, "init": 0, "holes": [],
        "transitions": [
            {"from": 0, "branches": [{"p": p, "fixed": 1} for p in probs]},
            {"from": 1, "branches": [{"p": 1.0, "fixed": 1}]}]})


@pytest.mark.parametrize("name, text", [
    ("bad.sk", BAD_BRANCHES_SKETCH % "1.5: s'=1 + -0.5: s'=1"),
    ("bad.sk", BAD_BRANCHES_SKETCH % "0: s'=0 + 1: s'=1"),
    ("bad.json", json_branches(1.5, -0.5)),
    ("bad.json", json_branches(0.0, 1.0)),
], ids=["sketch-outside", "sketch-zero", "json-outside", "json-zero"])
def test_branch_probability_outside_unit_interval_exits_2(capsys, tmp_path,
                                                          name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "synth", "feasible", "--input", str(path),
                         "--spec", "P>=0.5 [F s=1]")
    assert code == 2 and not out
    assert err.startswith("error: ") and "outside (0, 1]" in err
