import itertools
import random

import pytest

from chainsynth import family, jsonio
from chainsynth.constraints import Atom, Not, Or, parse_sexpr
from chainsynth.family import (Family, FamilyError, Fixed, Hole, HoleRef,
                               Realisation, Subfamily, cost, count_members,
                               enumerate_realisations, quotient_mdp, realise,
                               scheduler_consistency)
from chainsynth.model import (Distribution, Mdp, MemorylessScheduler,
                              mdp_extremal)
from chainsynth.randfam import pruning_family, random_family, random_goal

from conftest import R1, R2, R3, R4
from test_chains import _multi_hole_cases


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


def mixed_reads_family():
    """States that read two holes through one multi-hole target, one hole,
    no hole, and two holes through two targets whose branches can merge,
    under a multi-hole constraint."""
    ac = {(a, c): t for (a, c), t in zip(
        itertools.product("xyz", "pq"), (1, 2, 3, 1, 2, 3))}
    return Family(
        4, 0,
        (Hole("a", ("x", "y", "z")), Hole("b", ("u", "v")),
         Hole("c", ("p", "q"))),
        (((0.5, HoleRef(("a", "c"), ac)), (0.5, Fixed(2))),
         ((0.3, HoleRef.single("b", {"u": 0, "v": 3})), (0.7, Fixed(1))),
         ((1.0, Fixed(3)),),
         ((0.1, HoleRef.single("b", {"u": 2, "v": 3})),
          (0.2, HoleRef.single("a", {"x": 2, "y": 3, "z": 0})),
          (0.7, Fixed(3)))),
        constraints=(Or((Atom("a", "x"), Not(Atom("c", "q")))),))


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
    with pytest.raises(FamilyError, match="unknown hole 'bogus'"):
        realise(pruning_family(4)[0],
                Realisation({"route": "c0", "bogus": "x"}))


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


def test_quotient_refuses_a_malformed_subfamily():
    fam, _ = pruning_family(4)
    with pytest.raises(FamilyError, match="no option 'nope'"):
        quotient_mdp(fam, Subfamily((("c0", "nope"),)))
    with pytest.raises(FamilyError, match="restricts 0 holes"):
        quotient_mdp(fam, Subfamily(()))
    with pytest.raises(FamilyError, match="twice"):
        quotient_mdp(fam, Subfamily((("c1", "c1"),)))


def _fresh_quotient(fam, sub):
    """The reference a view must equal: an Mdp built from `Family.rows`,
    each state's actions the remaining combinations in product order."""
    remaining = {h.name: opts for h, opts in zip(fam.holes, sub.remaining)}
    return Mdp(fam.n_states, fam.init, tuple(
        tuple((c, row.dists[c]) for c in itertools.product(
            *(remaining[h] for h in row.holes)))
        for row in fam.rows))


def test_quotient_view_matches_a_fresh_build():
    """A subfamily's quotient, a row mask over its family's compiled
    quotient, lists the actions of a fresh build and gives the same
    values, bit for bit, and the same schedulers."""
    rng = random.Random(2417)
    cases = [fam for fam, _ in _multi_hole_cases()]
    cases += [random_family(rng, max_states=16, max_realisations=64)
              for _ in range(30)]
    for fam in cases:
        for sub in _subfamilies(fam, rng):
            view, fresh = quotient_mdp(fam, sub), _fresh_quotient(fam, sub)
            assert view.actions == fresh.actions
            for _ in range(2):
                goal = random_goal(rng, fam.n_states)
                for mode in ("max", "min"):
                    got = mdp_extremal(view, goal, mode)
                    want = mdp_extremal(fresh, goal, mode)
                    assert got[0].hex() == want[0].hex()
                    assert got[1].choice == want[1].choice


def test_views_share_one_compiled_quotient(monkeypatch):
    fam, _ = pruning_family(4)
    compiled = []
    compile_matrix = family.choice_matrix
    monkeypatch.setattr(family, "choice_matrix",
                        lambda tables: compiled.append(tables) or
                        compile_matrix(tables))
    full = quotient_mdp(fam)
    part = quotient_mdp(fam, Subfamily.full(fam).replace(0, ("c1", "c3")))
    for mdp in (full, part):
        for mode in ("max", "min"):
            mdp_extremal(mdp, {3}, mode)
    assert len(compiled) == 1
    for name in ("tables", "first", "indptr", "indices", "leave"):
        assert getattr(full, name) is getattr(part, name)
    assert [len(acts) for acts in part.actions] == [2, 1, 1, 1]


def test_views_share_the_per_family_tables():
    """Every table that does not depend on the mask is compiled once per
    family and is the same object in each view; a view's kept predecessor
    rows, cut from them, are those of its `actions`."""
    rng = random.Random(2518)
    for fam, _ in _multi_hole_cases():
        views = [quotient_mdp(fam, sub) for sub in _subfamilies(fam, rng)]
        for name in ("labels", "state", "src", "exits", "backup_exits",
                     "pred_rows", "pred_ptr"):
            assert len({id(getattr(view, name)) for view in views}) == 1
        for view in views:
            first = view.first.tolist()
            preds = [[] for _ in range(fam.n_states)]
            for s, acts in enumerate(view.actions):
                for label, dist in acts:
                    row = view.labels.index(label, first[s], first[s + 1])
                    for t in dist.states:
                        preds[t].append(row)
            assert view.row_preds == preds


def test_quotient_refuses_an_empty_option_set():
    fam, _ = pruning_family(4)
    with pytest.raises(FamilyError, match="leaves hole route no option"):
        quotient_mdp(fam, Subfamily(((),)))
    # also where no state reads the hole
    unread = Family(1, 0, (Hole("h", ("a", "b")),), (((1.0, Fixed(0)),),))
    assert len(quotient_mdp(unread).actions[0]) == 1
    with pytest.raises(FamilyError, match="leaves hole h no option"):
        quotient_mdp(unread, Subfamily(((),)))


def test_rows_hold_the_distributions_merged_gives():
    """The rows' distributions, built without checking them again, hold
    `Distribution.merged`'s entries, with float probabilities and their
    least and greatest successor, also where a family gives an int 1 and
    where two branches of a combination reach one successor."""
    fams = [Family(2, 0, (Hole("h", ("a", "b")),),
                   (((1, HoleRef.single("h", {"a": 1, "b": 0})),),
                    ((0.5, Fixed(1)), (0.5, HoleRef.single(
                        "h", {"a": 1, "b": 0}))))),
            mixed_reads_family(), two_hole_family()]
    for fam in fams:
        for row, branches in zip(fam.rows, fam.transitions):
            for combo, dist in row.dists.items():
                want = Distribution.from_pairs(
                    (tgt.state if isinstance(tgt, Fixed) else
                     tgt.resolve(dict(zip(row.holes, combo))), p)
                    for p, tgt in branches)
                assert dist.entries == want.entries
                assert all(type(p) is float for p in dist.probs)
                assert (dist.lo, dist.hi) == (want.lo, want.hi)


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
        assert r.key(fam) == tuple(r[h.name] for h in fam.holes)
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
    for fam in fams + [two_hole_family(), mixed_reads_family(),
                       sensors_family]:
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
