import functools

import pytest

from chainsynth.family import (Family, Fixed, Hole, HoleRef, Realisation,
                               enumerate_realisations, realise)
from chainsynth.sketch import (Bin, HoleE, Num, SketchError, Var, elaborate,
                               goal_states, parse, pretty_print)

from conftest import SKETCHES, UNNAMED_OPTIONS


def load(name):
    with open("%s/%s" % (SKETCHES, name)) as fh:
        return fh.read()


def elaborated(name):
    return elaborate(parse(load(name)))


def test_parse_toy_structure():
    prog = parse(load("toy.sk"))
    assert [h.name for h in prog.holes] == ["k2", "k3"]
    assert [o.label for o in prog.holes[0].options] == ["2", "3"]
    assert prog.module_name == "encode"
    assert len(prog.variables) == 1 and prog.variables[0].name == "s"
    assert len(prog.commands) == 5


def test_elaborate_toy():
    fam = elaborated("toy.sk")
    assert fam.n_states == 5
    assert fam.variables == ("s",)
    assert fam.valuations == tuple((s,) for s in range(5))
    row = fam.transitions[0]
    assert row[0] == (0.5, Fixed(1))
    assert row[1] == (0.5, HoleRef(("k2",), {("2",): 2, ("3",): 3}))
    assert fam.transitions[4] == ((1.0, Fixed(4)),)


def test_named_options_and_costs():
    fam = elaborated("power.sk")
    thr = fam.hole("thr")
    assert thr.options == ("low", "high")
    assert thr.costs == (1, 5)


def test_guard_holes_direct_distribution_choice():
    # the enabled command depends on the hole, so the branch targets must
    # resolve through it
    fam = elaborated("power.sk")
    idx = fam.valuations.index((1, 0))  # q=1, on=0
    holes = {h for _, tgt in fam.transitions[idx] for h in tgt.holes()}
    assert "thr" in holes
    # under thr=low the wake-up command fires, under thr=high the fill one
    low = realise(fam, Realisation({"thr": "low", "drop": "0"}))
    high = realise(fam, Realisation({"thr": "high", "drop": "0"}))
    assert dict(low.transitions[idx].entries) == {fam.valuations.index((1, 1)): 1.0}
    succ = dict(high.transitions[idx].entries)
    assert succ == {fam.valuations.index((2, 0)): 0.5,
                    fam.valuations.index((1, 0)): 0.5}


def test_multi_hole_update():
    fam = elaborated("sensors.sk")
    # the first command writes both feature flags in a single update
    tgt = fam.transitions[0][0][1]
    assert isinstance(tgt, HoleRef)
    assert set(tgt.hole_names) == {"fa", "fb"}
    assert len(tgt.table) == 4


def test_sketch_constraints():
    fam = elaborated("sensors.sk")
    assert len(fam.constraints) == 1
    assert not fam.satisfies_constraints({"fa": "a0", "fb": "b0"})
    assert fam.satisfies_constraints({"fa": "a1", "fb": "b0"})


def test_goal_states():
    fam = elaborated("toy.sk")
    assert goal_states(fam, "s=4") == frozenset([4])
    assert goal_states(fam, "s>=2 & s<=3") == frozenset([2, 3])
    assert goal_states(fam, "s=0 | s=4") == frozenset([0, 4])
    with pytest.raises(SketchError):
        goal_states(fam, "s=@k2@")
    for text in ("s=4 s=0", "s=4 )", "s=4 & s=0 1"):
        with pytest.raises(SketchError, match="trailing input") as exc:
            goal_states(fam, text)
        assert exc.value.line == 1 and exc.value.col == text.rindex(" ") + 2
    pw = elaborated("power.sk")
    assert goal_states(pw, "on=1 & q=0") == frozenset(
        [pw.valuations.index((0, 1))])


def test_pretty_print_roundtrip():
    prog = parse(load("power.sk"))
    again = parse(pretty_print(prog))
    assert elaborate(again) == elaborate(prog)


def test_plus_ambiguity_in_updates():
    fam = elaborate(parse("""
        module inc
        s : [0..2] init 0;
        s < 2 -> 0.5: s'=s+1 + 0.5: s'=0;
        s = 2 -> 1: s'=2;
        endmodule
    """))
    assert fam.transitions[0] == ((0.5, Fixed(1)), (0.5, Fixed(0)))
    assert fam.transitions[1] == ((0.5, Fixed(2)), (0.5, Fixed(0)))


def test_long_update_parses():
    # the `+` that starts the second branch is found in one pass over the
    # update, not by re-parsing the rest of it at every `+`
    prog = parse("module m\ns : [0..1] init 0;\n"
                 "s >= 0 -> 0.5: s'=s%s + 0.5: s'=0;\nendmodule"
                 % ("+0" * 63))
    (p1, upd1), (p2, upd2) = prog.commands[0].branches
    total = functools.reduce(lambda e, _: Bin("+", e, Num(0, "0")),
                             range(63), Var("s"))
    assert p1 == p2 == Num(0.5, "0.5")
    assert upd1 == (("s", total),) and upd2 == (("s", Num(0, "0")),)


def test_unnamed_option_labels_are_balanced():
    # a label is the option's text less the one pair of brackets
    # `Bin.to_text` puts round the whole expression
    labels = [o.label for o in parse(UNNAMED_OPTIONS).holes[0].options]
    assert labels == ["-(1)", "1 + (2 * 0)", "(1 + 2) * 1"]
    for label in labels:
        depth = 0
        for ch in label:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            assert depth >= 0
        assert depth == 0
    fam = elaborate(parse(UNNAMED_OPTIONS))
    assert fam.hole("k").options == tuple(labels)


@pytest.mark.parametrize("op, left, value", [
    ("&", 0, False), ("|", 1, True), ("=>", 0, True)])
def test_logical_operators_short_circuit(op, left, value):
    # reading the right operand would raise: `nope` has no value
    assert Bin(op, Num(left, str(left)), Var("nope")).eval({}, {}) is value


@pytest.mark.parametrize("text, message", [
    # after a `//` comment
    ("module m // the module\ns : [0..1] init 0 // no semicolon\nendmodule",
     "3:1: expected ';', got 'endmodule'"),
    ("// a comment\n  $", "2:3: unexpected character '$'"),
    # after a tab, which is one column
    ("module m\n\ts : [0..1] init 0;\n\ts = 0 -> 1: s'=0 $;\nendmodule",
     "3:19: unexpected character '$'"),
    ("module m\n\ts : [0..1] init 0;\n\t\ts = 0 -> 1 s'=0;\nendmodule",
     "3:14: expected ':', got 's'"),
    # on the last line
    ("module m\ns : [0..1] init 0;\ns = 0 -> 1: s'=0;",
     "3:18: missing endmodule"),
    ("module m\ns : [0..1] init 0;\ns = 0 -> 1: s'=0;\nendmodule x",
     "4:11: trailing input after endmodule"),
    ("module m\ns : [0..1] init 0;\ns = 0 -> 1: s'=0; // last\nendmodule\n#",
     "5:1: unexpected character '#'"),
])
def test_error_positions(text, message):
    with pytest.raises(SketchError) as exc:
        parse(text)
    assert str(exc.value) == message
    line, col = message.split(":")[:2]
    assert (exc.value.line, exc.value.col) == (int(line), int(col))


MINI = """
hole @k@ either { 0, 1 }
module m
s : [0..1] init 0;
%s
endmodule
"""


STEPS = """
module m
s : [0..3] init 2;
%s
endmodule
"""


@pytest.mark.parametrize("commands, steps", [
    # `*` binds tighter than binary `-`: 2*2 - 1
    ("s = 2 -> 1: s'=2*s - 1;\ns != 2 -> 1: s'=s;", {2: 3, 3: 3}),
    # unary `-` of a parenthesised difference
    ("s = 2 -> 1: s'=-(s - 3);\ns != 2 -> 1: s'=s;", {2: 1, 1: 1}),
    # `!` negates a guard
    ("!(s = 2) -> 1: s'=s;\ns = 2 -> 1: s'=0;", {2: 0, 0: 0}),
    # `=>` in a guard; unary `-` binds tighter than `*`
    ("s = 2 => s < 2 -> 1: s'=s;\ns = 2 -> 1: s'=-s * -1 - 1;",
     {2: 1, 1: 1}),
])
def test_expression_operators(commands, steps):
    fam = elaborate(parse(STEPS % commands))
    values = [v for (v,) in fam.valuations]
    assert all(len(row) == 1 for row in fam.transitions)
    assert {values[s]: values[row[0][1].state]
            for s, row in enumerate(fam.transitions)} == steps


CONSTRAINED = """
hole @a@ either { a0 is 0, a1 is 1 }
hole @b@ either { b0 is 0, b1 is 1 }
constraint %s
module m
s : [0..1] init 0;
s >= 0 -> 1: s'=@a@;
endmodule
"""


@pytest.mark.parametrize("constraint, members", [
    ("a1 => b1", [("a0", "b0"), ("a0", "b1"), ("a1", "b1")]),
    ("!a1", [("a0", "b0"), ("a0", "b1")]),
    ("a1 & b1", [("a1", "b1")]),
    ("!(a1 & b0) => b1", [("a0", "b1"), ("a1", "b0"), ("a1", "b1")]),
])
def test_constraint_operators(constraint, members):
    fam = elaborate(parse(CONSTRAINED % constraint))
    assert [r.key(fam) for r in enumerate_realisations(fam)] == members


@pytest.mark.parametrize("constraint, message", [
    ("c1", "^constraint references unknown option 'c1'$"),
    ("s < 3", "^constraints must be propositional over option names$"),
])
def test_constraint_refusals(constraint, message):
    with pytest.raises(SketchError, match=message):
        elaborate(parse(CONSTRAINED % constraint))


@pytest.mark.parametrize("text, message", [
    ("module m\nendmodule", "^module declares no variables$"),
    ("hole @k@ either { t }\nmodule m\ns : [0..1] init 0;\n"
     "s <= 1 -> 1: s'=@k@;\nendmodule",
     "^1:0: hole k option reads t, which is not a variable$"),
    (MINI % "s <= 1 -> 1: t'=0;",
     "^5:0: update writes unknown variable 't'$"),
    (MINI % "s <= 1 -> 1: s'=(s = 0);", "^5:0: update of s is not an integer$"),
])
def test_elaborate_refusals(text, message):
    with pytest.raises(SketchError, match=message):
        elaborate(parse(text))


def test_overlapping_guards_rejected():
    with pytest.raises(SketchError, match="overlap"):
        elaborate(parse(MINI % "s >= 0 -> 1: s'=1;\ns = 0 -> 1: s'=0;\n"
                        "s = 1 -> 1: s'=1;"))


def test_missing_command_rejected():
    with pytest.raises(SketchError, match="no command"):
        elaborate(parse(MINI % "s = 0 -> 1: s'=1;"))


def test_update_out_of_bounds():
    with pytest.raises(SketchError, match="bounds"):
        elaborate(parse(MINI % "s <= 1 -> 1: s'=s+1;"))


def test_probability_sum_checked():
    with pytest.raises(SketchError, match="sum"):
        elaborate(parse(MINI % "s <= 1 -> 0.5: s'=0 + 0.4: s'=1;"))


@pytest.mark.parametrize("branches", ["1.5: s'=1 + -0.5: s'=1",
                                      "0: s'=0 + 1: s'=1"])
def test_branch_probability_outside_unit_interval_rejected(branches):
    with pytest.raises(SketchError, match=r"^5:0: branch probability .* "
                                          r"outside \(0, 1\]"):
        elaborate(parse(MINI % ("s <= 1 -> %s;" % branches)))


def test_duplicate_variable_rejected():
    with pytest.raises(SketchError, match="^3:1: variable s declared twice"):
        parse("module m\ns : [0..1] init 0;\ns : [0..2] init 1;\n"
              "s <= 2 -> 1: s'=0;\nendmodule")


def test_update_writing_a_variable_twice_rejected():
    with pytest.raises(SketchError, match="^5:21: update writes s twice"):
        parse(MINI % "s <= 1 -> 1: s'=1 & s'=0;")


def test_hole_in_probability_rejected():
    with pytest.raises(SketchError, match="probability"):
        elaborate(parse(MINI % "s <= 1 -> @k@: s'=0 + 1-@k@: s'=1;"))


def test_unknown_hole_rejected():
    with pytest.raises(SketchError, match="unknown hole"):
        elaborate(parse(MINI % "s <= 1 -> 1: s'=@nope@;"))


def test_duplicate_hole_rejected():
    with pytest.raises(SketchError, match="duplicate"):
        parse("hole @k@ either { 0 }\nhole @k@ either { 1 }\n"
              "module m\ns : [0..1] init 0;\ns<=1 -> 1: s'=0;\nendmodule")


def test_duplicate_option_name_rejected():
    with pytest.raises(SketchError, match="twice"):
        elaborate(parse(
            "hole @a@ either { x is 0 }\nhole @b@ either { x is 1 }\n"
            "module m\ns : [0..1] init 0;\ns<=1 -> 1: s'=0;\nendmodule"))


def test_competing_commands_need_equal_probabilities():
    text = ("hole @k@ either { 0, 1 }\nmodule m\ns : [0..2] init 0;\n"
            "s = @k@ -> 0.5: s'=1 + 0.5: s'=2;\n"
            "s != @k@ & s < 2 -> 1: s'=2;\n"
            "s = 2 -> 1: s'=2;\nendmodule")
    with pytest.raises(SketchError, match="branch probabilities"):
        elaborate(parse(text))


def test_state_bound_enforced():
    with pytest.raises(SketchError, match="exceeds"):
        elaborate(parse("module m\ns : [0..9] init 0;\n"
                        "s < 9 -> 1: s'=s+1;\ns = 9 -> 1: s'=9;\nendmodule"),
                  max_states=3)


def test_parse_error_has_position():
    with pytest.raises(SketchError, match=r"\d+:\d+"):
        parse("module m\ns : [0..1] init 0\nendmodule")


def guard_chain(k):
    """States s = 0..k; in each state i < k the guard hole @gi@ picks which
    of two commands fires, and the last state loops."""
    lines = ["hole @g%d@ either { 0, 1 }" % i for i in range(k)]
    lines += ["module chain", "s : [0..%d] init 0;" % k]
    for i in range(k):
        lines.append("s = %d & @g%d@ = 0 -> 0.5: s'=%d + 0.5: s'=%d;"
                     % (i, i, i + 1, i))
        lines.append("s = %d & @g%d@ = 1 -> 0.5: s'=%d + 0.5: s'=0;"
                     % (i, i, i + 1))
    lines += ["s = %d -> 1: s'=%d;" % (k, k), "endmodule"]
    return "\n".join(lines)


def test_guard_holes_are_read_linearly(monkeypatch):
    # a guard is evaluated under the options of its own holes only, and only
    # where its hole-free conjuncts hold: not under every combination of all
    # k guard holes in every state
    reads = []
    hole_eval = HoleE.eval

    def counted(self, valuation, binding):
        reads.append(self.name)
        return hole_eval(self, valuation, binding)

    monkeypatch.setattr(HoleE, "eval", counted)
    counts = {}
    for k in (1, 2, 8, 24):
        reads.clear()
        assert elaborate(parse(guard_chain(k))).n_states == k + 1
        counts[k] = len(reads)
    assert counts[1] > 0
    assert all(n == k * counts[1] for k, n in counts.items())


def test_guard_chain_family():
    g = lambda i: Hole("g%d" % i, ("0", "1"))
    assert elaborate(parse(guard_chain(3))) == Family(
        4, 0, (g(0), g(1), g(2)),
        (((0.5, Fixed(1)), (0.5, Fixed(0))),
         ((0.5, Fixed(2)), (0.5, HoleRef(("g1",), {("0",): 1, ("1",): 0}))),
         ((0.5, Fixed(3)), (0.5, HoleRef(("g2",), {("0",): 2, ("1",): 0}))),
         ((1.0, Fixed(3)),)),
        variables=("s",), valuations=((0,), (1,), (2,), (3,)))
