import json
import threading

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


def edited(family, edit):
    data = json.loads(family)
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("family, flags, message", [
    (json_family(fixed=1.5), (), "successor 1.5 outside S"),
    (json_family(table_b=0.5), (), "successor 0.5 outside S"),
    (json_family(init=0.5), (), "initial state 0.5 outside S"),
    (json_family(init=5), (), "initial state 5 outside S"),
    (json_family(costs=("x", "y")), ("--budget", "1", "--cost", "optionsum"),
     "costs must be natural numbers"),
    (edited(json_family(), lambda d: d["transitions"].append(
        {"from": 1, "branches": [{"p": 1.0, "fixed": 0}]})), (),
     "state 1 has two transition entries"),
    (edited(json_family(), lambda d: d["transitions"][0]["branches"][0][
        "table"].update(zzz=7)), (), "keys that name no option combination"),
    (edited(json_family(), lambda d: d["transitions"][1]["branches"][0]
            .update(p=True)), (), "branch probability True outside (0, 1]"),
], ids=["fixed-float", "table-float", "init-float", "init-out-of-range",
        "string-costs", "second-from", "unknown-table-key", "boolean-p"])
def test_malformed_json_family_values_exit_2(capsys, tmp_path, family, flags,
                                             message):
    path = tmp_path / "fam.json"
    path.write_text(family)
    code, out, err = run(capsys, "synth", "feasible", "--input", str(path),
                         "--spec", "P>=0.5 [F s=1]", "--engine", "cegar",
                         *flags)
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


def deep_sketch(update):
    with open(toy_path()) as fh:
        return fh.read().replace("s = 4 -> 1: s'=s;",
                                 "s = 4 -> 1: s'=%s;" % update)


@pytest.mark.parametrize("input_text, argv, message", [
    (deep_sketch("s" + "+0" * 1500), ("check", "--assign", "k2=2,k3=4"),
     "sketch expression nests too deeply"),
    (deep_sketch("(" * 120 + "4" + ")" * 120),
     ("check", "--assign", "k2=2,k3=4"), "sketch nests too deeply"),
    (edited(json_family(), lambda d: d.update(constraints=[
        "(not " * 3000 + "(= h a)" + ")" * 3000])),
     ("synth", "partition"), "constraint nests too deeply"),
    (None, ("synth", "partition"), "goal expression nests too deeply"),
], ids=["long-update", "nested-brackets", "nested-not", "long-goal"])
def test_deep_input_exits_2(capsys, tmp_path, input_text, argv, message):
    # recursion that follows the input's nesting is refused, not a crash
    goal = "s=1"
    if input_text is None:
        path, goal = toy_path(), "s=4" + "&s=4" * 1200
    else:
        path = tmp_path / ("fam.json" if input_text.startswith("{")
                           else "deep.sk")
        path.write_text(input_text)
    code, out, err = run(capsys, *argv, "--input", str(path),
                         "--spec", "P>=0.1 [F %s]" % goal)
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def nested_not(nots):
    """The JSON family with the constraint (not (not ... (= h a))), `nots`
    times (not ...)."""
    return edited(json_family(), lambda d: d.update(
        constraints=["(not " * nots + "(= h a)" + ")" * nots]))


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
@pytest.mark.parametrize("nots", [984, 986])
def test_constraint_nested_near_the_recursion_limit_exits_2(
        capsys, tmp_path, engine, nots):
    # past MAX_NESTING the parser refuses, before any recursion runs deep.
    # main runs in a new thread, whose stack starts about as shallow as the
    # command line's: under pytest's deep stack these depths fail to parse
    # whether or not they are bounded
    path = tmp_path / "fam.json"
    path.write_text(nested_not(nots))
    argv = ["synth", "partition", "--input", str(path),
            "--spec", "P>=0.5 [F s=1]", "--engine", engine]
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes, "main raised or did not return"
    code, (out, err) = codes[0], capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: ") and "constraint nests too deeply" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
def test_constraint_nested_to_the_bound_answers(capsys, tmp_path, engine):
    from chainsynth.constraints import MAX_NESTING
    path = tmp_path / "fam.json"
    for nots, exit_code in ((MAX_NESTING - 1, 0), (MAX_NESTING, 2)):
        path.write_text(nested_not(nots))
        code, out, _ = run(capsys, "synth", "partition", "--input",
                           str(path), "--spec", "P>=0.5 [F s=1]",
                           "--engine", engine)
        assert code == exit_code and bool(out) == (exit_code == 0)


@pytest.mark.parametrize("engine", ["enum", "cegar", "cegis"])
def test_long_constraint_chain_in_sketch_answers(capsys, tmp_path, engine):
    # a chain of one operator is one constraint node, however long
    with open(toy_path()) as fh:
        text = fh.read().replace(
            "hole @k2@ either { 2, 3 }",
            "hole @k2@ either { two is 2, three is 3 }").replace(
            "hole @k3@ either { 2, 4 }",
            "hole @k3@ either { 2, 4 }\nconstraint "
            + " | ".join(["three"] * 400))
    path = tmp_path / "chain.sk"
    path.write_text(text)
    code, out, _ = run(capsys, "synth", "partition", "--input", str(path),
                       "--spec", "P>=0.1 [F s=4]", "--engine", engine)
    assert code == 0 and "|T|=1, |F|=1" in out and "k2=two" not in out


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
