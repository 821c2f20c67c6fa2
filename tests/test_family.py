import itertools
import random

import pytest

from chainsynth import jsonio
from chainsynth.constraints import Atom, Not, Or, parse_sexpr
from chainsynth.family import (Family, FamilyError, Fixed, Hole, HoleRef,
                               Realisation, Subfamily, cost, count_members,
                               enumerate_realisations, quotient_mdp, realise,
                               scheduler_consistency)
from chainsynth.model import Distribution, MemorylessScheduler
from chainsynth.randfam import random_family

from conftest import R1, R2, R3, R4


def structural_cost_bfs(fam, r):
    """Independent recomputation of the structural cost via an explicit BFS."""
    mc = realise(fam, r)
    seen, queue = {mc.init}, [mc.init]
    edges = 0
    while queue:
        s = queue.pop(0)
        edges += len(mc.transitions[s].entries)
        for t, _ in mc.transitions[s].entries:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen) + edges


def resolved(row, choice):
    """Reference for the compiled rows: the distribution of one state's
    transitions, each target resolved on the spot under `choice`."""
    return Distribution.from_pairs(
        (tgt.state if isinstance(tgt, Fixed) else tgt.resolve(choice), p)
        for p, tgt in row)


def two_hole_family():
    return Family(
        2, 0,
        (Hole("a", ("x", "y"), (1, 2)), Hole("b", ("u", "v"))),
        (((0.25, HoleRef(("a", "b"), {("x", "u"): 0, ("x", "v"): 1,
                                      ("y", "u"): 1, ("y", "v"): 0})),
          (0.75, Fixed(1))),
         ((1.0, Fixed(1)),)),
        constraints=(Or((Atom("a", "x"), Not(Atom("b", "v")))),),
        cost_model="optionsum",
        variables=("s",), valuations=((0,), (1,)))


def test_hole_validation():
    with pytest.raises(FamilyError):
        Hole("h", ())
    with pytest.raises(FamilyError):
        Hole("h", ("a", "a"))
    with pytest.raises(FamilyError):
        Hole("h", ("a", "b"), (1,))
    for bad in (-1, 1.5, True, "1"):  # costs are natural numbers
        with pytest.raises(FamilyError, match="natural"):
            Hole("h", ("a",), (bad,))
    assert Hole("h", ("a",)).costs == (0,)


def test_family_validation():
    with pytest.raises(FamilyError):  # probabilities must sum to one
        Family(1, 0, (), (((0.5, Fixed(0)),),))
    with pytest.raises(FamilyError):  # successor outside the state space
        Family(1, 0, (), (((1.0, Fixed(3)),),))
    for probs in ((1.5, -0.5), (0.0, 1.0)):  # every branch lies in (0, 1]
        with pytest.raises(FamilyError, match=r"outside \(0, 1\]"):
            Family(1, 0, (), (tuple((p, Fixed(0)) for p in probs),))
    for bad in (0.0, False):  # successors and init are int state indices
        with pytest.raises(FamilyError, match="successor"):
            Family(1, 0, (), (((1.0, Fixed(bad)),),))
        with pytest.raises(FamilyError, match="initial state"):
            Family(1, bad, (), (((1.0, Fixed(0)),),))
    with pytest.raises(FamilyError, match="initial state"):
        Family(1, 1, (), (((1.0, Fixed(0)),),))
    with pytest.raises(FamilyError):  # table must be total
        Family(1, 0, (Hole("h", ("a", "b")),),
               (((1.0, HoleRef(("h",), {("a",): 0})),),))
    with pytest.raises(FamilyError, match="no option combination"):
        Family(1, 0, (Hole("h", ("a",)),),  # a key no option names
               (((1.0, HoleRef(("h",), {("a",): 0, ("zz",): 7})),),))
    with pytest.raises(FamilyError, match=r"outside \(0, 1\]"):
        Family(1, 0, (), (((True, Fixed(0)),),))  # a probability, not a bool
    with pytest.raises(FamilyError):  # unknown hole in a target
        Family(1, 0, (), (((1.0, HoleRef(("h",), {("a",): 0})),),))
    with pytest.raises(FamilyError):
        Family(1, 0, (), (((1.0, Fixed(0)),),), cost_model="bogus")
    hole = (Hole("h", ("a", "b")),)
    with pytest.raises(FamilyError):  # constraint names an unknown hole
        Family(1, 0, hole, (((1.0, Fixed(0)),),),
               constraints=(Atom("zz", "a"),))
    with pytest.raises(FamilyError):  # constraint names an unknown option
        Family(1, 0, hole, (((1.0, Fixed(0)),),),
               constraints=(Not(Atom("h", "zz")),))


def test_structural_costs(example_family):
    expected = {tuple(sorted(R1.items())): 8, tuple(sorted(R2.items())): 10,
                tuple(sorted(R3.items())): 11, tuple(sorted(R4.items())): 11}
    for r in enumerate_realisations(example_family):
        c = cost(example_family, r)
        assert c == expected[tuple(sorted(r.assignment.items()))]
        assert c == structural_cost_bfs(example_family, r)


def test_optionsum_cost():
    fam = Family(1, 0, (Hole("a", ("x", "y"), (1, 5)),
                        Hole("b", ("u", "v"), (0, 7))),
                 (((1.0, Fixed(0)),),), cost_model="optionsum")
    assert cost(fam, Realisation({"a": "y", "b": "v"})) == 12
    assert cost(fam, Realisation({"a": "x", "b": "u"})) == 1
    with pytest.raises(FamilyError):
        cost(fam, Realisation({"a": "x", "b": "u"}), model="bogus")


def test_realise_validates(example_family):
    with pytest.raises(FamilyError):
        realise(example_family, Realisation({"k2": "2"}))
    with pytest.raises(FamilyError):
        realise(example_family, Realisation({"k2": "2", "k3": "9"}))


def test_realise_keeps_index_space(example_family):
    mc = realise(example_family, Realisation(R1))
    assert mc.n_states == 5  # state 4 stays, even though unreachable
    assert mc.reachable() == {0, 1, 2}


def test_enumeration_order(example_family):
    keys = [r.key(example_family)
            for r in enumerate_realisations(example_family)]
    assert keys == [("2", "2"), ("2", "4"), ("3", "2"), ("3", "4")]


def test_constraints_filter_enumeration(example_family):
    fam = Family(example_family.n_states, example_family.init,
                 example_family.holes, example_family.transitions,
                 constraints=(Not(Atom("k3", "2")),))
    keys = [r.key(fam) for r in enumerate_realisations(fam)]
    assert keys == [("2", "4"), ("3", "4")]
    with pytest.raises(FamilyError):
        realise(fam, Realisation(R1))


def test_multi_hole_target_resolution():
    tgt = HoleRef(("a", "b"), {("x", "u"): 0, ("x", "v"): 1,
                               ("y", "u"): 1, ("y", "v"): 0})
    assert tgt.resolve({"a": "x", "b": "v"}) == 1
    assert tgt.resolve({"a": "y", "b": "v"}) == 0


def test_subfamily_ops(example_family):
    sub = Subfamily.full(example_family)
    assert count_members(example_family, sub) == 4
    pinned = sub.replace(1, ("4",))
    assert count_members(example_family, pinned) == 2
    assert pinned.remaining == (("2", "3"), ("4",))
    assert [r.key(example_family) for r in
            enumerate_realisations(example_family, pinned)] == \
        [("2", "4"), ("3", "4")]
    with pytest.raises(FamilyError):
        sub.replace(0, ())


def test_quotient_structure(example_family):
    mdp = quotient_mdp(example_family)
    # the family's own states and initial state
    assert (mdp.n_states, mdp.init) == (5, 0)
    # one action per option combination of the holes in each state's row,
    # labelled with that combination
    assert [len(a) for a in mdp.actions] == [2, 1, 2, 2, 1]
    assert [label for label, _ in mdp.actions[0]] == [("2",), ("3",)]
    assert [label for label, _ in mdp.actions[1]] == [()]


def test_quotient_respects_subfamily(example_family):
    sub = Subfamily.full(example_family).replace(1, ("4",))
    mdp = quotient_mdp(example_family, sub)
    assert [len(a) for a in mdp.actions] == [2, 1, 1, 1, 1]
    assert [label for label, _ in mdp.actions[3]] == [("4",)]


def _subfamilies(fam, rng):
    """The full subfamily and three random restrictions of it."""
    yield Subfamily.full(fam)
    for _ in range(3):
        kept = [rng.sample(h.options, rng.randint(1, len(h.options)))
                for h in fam.holes]
        yield Subfamily(tuple(tuple(o for o in h.options if o in k)
                              for h, k in zip(fam.holes, kept)))


def _matches_resolution(fam, rng):
    for r in enumerate_realisations(fam):
        assert realise(fam, r).transitions == tuple(
            resolved(row, r.assignment) for row in fam.transitions)
    order = [h.name for h in fam.holes]
    for sub in _subfamilies(fam, rng):
        remaining = dict(zip(order, sub.remaining))
        mdp = quotient_mdp(fam, sub)
        assert (mdp.n_states, mdp.init) == (fam.n_states, fam.init)
        for s, row in enumerate(fam.transitions):
            local = sorted({h for _, tgt in row for h in tgt.holes()},
                           key=order.index)
            combos = list(itertools.product(*(remaining[h] for h in local)))
            # labels: the remaining options' combinations in product order
            assert [label for label, _ in mdp.actions[s]] == combos
            assert [d for _, d in mdp.actions[s]] == \
                [resolved(row, dict(zip(local, c))) for c in combos] == \
                [fam.rows[s].dists[c] for c in combos]


def test_compiled_rows_match_per_call_resolution(sensors_family):
    """realise and every quotient action select the distribution that
    resolving each target on the spot gives."""
    rng = random.Random(97)
    fams = [random_family(rng, max_states=12, max_realisations=64)
            for _ in range(30)]
    for fam in fams + [two_hole_family(), sensors_family]:
        _matches_resolution(fam, rng)


def test_scheduler_consistency(example_family):
    sub = Subfamily.full(example_family)
    # state 2 picks k3=2, state 3 picks k3=4: inconsistent on k3
    sched = MemorylessScheduler({0: ("2",), 1: (), 2: ("2",), 3: ("4",),
                                 4: ()})
    verdict = scheduler_consistency(example_family, sub, sched,
                                    {0, 1, 2, 3, 4})
    assert not verdict.consistent
    assert verdict.inconsistent == {"k3": {"2", "4"}}
    assert verdict.frequencies["k3"] == {"2": 1, "4": 1}
    # restricting attention to reachable states can make it consistent
    verdict = scheduler_consistency(example_family, sub, sched, {0, 1, 2})
    assert verdict.consistent
    assert verdict.realisation.assignment == {"k2": "2", "k3": "2"}


def test_consistency_counts_the_decoded_choices(sensors_family):
    """scheduler_consistency counts, per hole and option, the reachable
    states whose action commits to it, as its label names it."""
    rng = random.Random(41)
    fams = [random_family(rng, max_states=12, max_realisations=64)
            for _ in range(20)]
    for fam in fams + [two_hole_family(), sensors_family]:
        order = [h.name for h in fam.holes]
        for sub in _subfamilies(fam, rng):
            mdp = quotient_mdp(fam, sub)
            sched = MemorylessScheduler({s: rng.choice(acts)[0]
                                         for s, acts in enumerate(mdp.actions)})
            reachable = rng.sample(range(mdp.n_states),
                                   rng.randint(1, mdp.n_states))
            freqs = {h.name: {} for h in fam.holes}
            for s in reachable:
                holes = sorted({h for _, tgt in fam.transitions[s]
                                for h in tgt.holes()}, key=order.index)
                for hole, option in zip(holes, sched[s]):
                    freqs[hole][option] = freqs[hole].get(option, 0) + 1
            verdict = scheduler_consistency(fam, sub, sched, reachable)
            assert verdict.frequencies == freqs


def test_consistent_scheduler_defaults_unconstrained(example_family):
    sched = MemorylessScheduler({0: ("3",), 1: (), 2: ("2",), 3: ("2",),
                                 4: ()})
    verdict = scheduler_consistency(example_family,
                                    Subfamily.full(example_family), sched,
                                    {0, 1})
    assert verdict.consistent
    # no reachable state constrains either hole's table except k2
    assert verdict.realisation.assignment == {"k2": "3", "k3": "2"}


def test_json_roundtrip(example_family):
    text = jsonio.dumps(example_family)
    fam = jsonio.loads(text)
    assert jsonio.dumps(fam) == text
    assert fam == example_family


def test_json_roundtrip_multi_hole_and_constraints():
    fam = two_hole_family()
    text = jsonio.dumps(fam)
    fam2 = jsonio.loads(text)
    assert fam2 == fam
    assert jsonio.dumps(fam2) == text


def test_constraint_sexpr_roundtrip():
    c = parse_sexpr("(=> (or (= k2 2)) (not (= k3 2)))")
    assert c.eval({"k2": "3", "k3": "2"})
    assert not c.eval({"k2": "2", "k3": "2"})
    assert parse_sexpr(c.to_sexpr()) == c
