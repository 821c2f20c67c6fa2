import random

import pytest

from chainsynth.constraints import And, Atom, Implies, Not
from chainsynth.engines.base import EngineError, SynthesisQuery
from chainsynth import sketch
from chainsynth.engines.cegar import (_count, _linked, _split_off,
                                      cegar_solve, initial_subfamily, split)
from chainsynth.engines.cegis import cegis_solve
from chainsynth.engines.enumeration import enum_solve
from chainsynth.family import (ConsistencyVerdict, Family, Fixed, Hole,
                               HoleRef, Realisation, Subfamily,
                               enumerate_realisations, realise)
from chainsynth.model import Specification, check
from chainsynth.randfam import pruning_family, random_family, random_goal

from conftest import R1, R2, R3, R4, cycle_exit_family, tiny_exit_family
from test_family import two_hole_family

GOAL4 = frozenset([4])


def constrained(fam, constraints):
    return Family(fam.n_states, fam.init, fam.holes, fam.transitions,
                  constraints=tuple(constraints), cost_model=fam.cost_model)


def test_initial_subfamily_folds_constraints(example_family):
    fam = constrained(example_family, [Not(Atom("k3", "2"))])
    sub = initial_subfamily(fam)
    assert sub.remaining == (("2", "3"), ("4",))


def test_initial_subfamily_keeps_multi_hole_constraints_out(example_family):
    fam = constrained(example_family,
                      [Implies(Atom("k2", "2"), Not(Atom("k3", "2")))])
    assert initial_subfamily(fam) == Subfamily.full(fam)


def test_engines_agree_on_sensors_sketch(sensors_family):
    # sensors.sk constrains two holes at once ("a1 | b1")
    fam = sensors_family
    queries = []
    for expr in ("s=2", "s=3"):
        goal = sketch.goal_states(fam, expr)
        for op, lam in ((">=", 0.5), ("<=", 0.5), (">", 0.9), ("<", 0.95)):
            spec = Specification(goal, op, lam)
            queries += [SynthesisQuery("feasible", spec=spec),
                        SynthesisQuery("partition", spec=spec)]
        queries += [SynthesisQuery("max", goal=goal),
                    SynthesisQuery("min", goal=goal),
                    SynthesisQuery("min", goal=goal, budget=3,
                                   cost_model="optionsum")]
    for q in queries:
        expect = enum_solve(fam, q)
        for solve in (cegar_solve, cegis_solve):
            out = solve(fam, q)
            assert out.kind == expect.kind, (solve.__name__, q)
            if q.kind == "partition":
                assert sorted(r.key(fam) for r in out.T) == \
                    sorted(r.key(fam) for r in expect.T)
                assert sorted(r.key(fam) for r in out.F) == \
                    sorted(r.key(fam) for r in expect.F)
            elif out.kind == "witness":
                assert fam.satisfies_constraints(out.witness.assignment)
                if q.kind == "feasible":
                    assert check(realise(fam, out.witness), q.spec)[0]
                else:
                    assert out.value == pytest.approx(expect.value, abs=1e-6)


def test_engines_agree_on_an_empty_domain(example_family):
    # single-hole constraints that rule out every option of k3 leave no member
    fam = constrained(example_family,
                      [Not(Atom("k3", "2")), Not(Atom("k3", "4"))])
    assert initial_subfamily(fam).remaining == (("2", "3"), ())
    spec = Specification(GOAL4, ">=", 0.1)
    for q in (SynthesisQuery("partition", spec=spec),
              SynthesisQuery("feasible", spec=spec),
              SynthesisQuery("max", goal=GOAL4),
              SynthesisQuery("max", goal=GOAL4, budget=5,
                             cost_model="optionsum")):
        for solve in (enum_solve, cegar_solve, cegis_solve):
            out = solve(fam, q)
            if q.kind == "partition":
                assert (out.kind, out.T, out.F) == ("partition", [], []), \
                    solve.__name__
            else:
                assert out.kind == "unsat", (solve.__name__, q)


def four_option_family():
    return Family(2, 0, (Hole("h", ("a", "b", "c", "d")),),
                  (((1.0, HoleRef.single("h", {"a": 0, "b": 0,
                                               "c": 1, "d": 1})),),
                   ((1.0, Fixed(1)),)))


def test_split_most_frequent_vs_rest():
    fam = four_option_family()
    verdict = ConsistencyVerdict(None, {"h": {"a", "c"}},
                                 {"h": {"a": 3, "c": 1}})
    pinned, rest = split(Subfamily.full(fam), verdict, fam)
    assert pinned.remaining == (("a",),)
    assert rest.remaining == (("b", "c", "d"),)


def test_split_two_option_hole(example_family):
    verdict = ConsistencyVerdict(None, {"k3": {"2", "4"}},
                                 {"k3": {"2": 1, "4": 1}, "k2": {"2": 1}})
    pinned, rest = split(Subfamily.full(example_family), verdict,
                         example_family)
    assert pinned.remaining == (("2", "3"), ("2",))
    assert rest.remaining == (("2", "3"), ("4",))


def test_split_off_halves_the_first_open_hole():
    fam, _ = pruning_family(8)
    full = Subfamily.full(fam)
    low, high = ("c0", "c1", "c2", "c3"), ("c4", "c5", "c6", "c7")
    first, second = _split_off(full, Realisation({"route": "c3"}), fam)
    assert (first.remaining, second.remaining) == ((low,), (high,))
    first, second = _split_off(full, Realisation({"route": "c6"}), fam)
    assert (first.remaining, second.remaining) == ((high,), (low,))


def random_boxes(rng, fam, n):
    """`n` random subfamilies inside the one cegar starts from."""
    start = initial_subfamily(fam).remaining
    for _ in range(n):
        yield Subfamily(tuple(tuple(o for o in opts if rng.random() < 0.6)
                              or opts for opts in start))


def assert_count_matches_listing(rng, fam, n_boxes=20):
    members = [r.key(fam) for r in enumerate_realisations(fam)]
    for sub in random_boxes(rng, fam, n_boxes):
        excluded = frozenset(rng.sample(members,
                                        rng.randint(0, min(3, len(members)))))
        listed = sum(r.key(fam) not in excluded
                     for r in enumerate_realisations(fam, sub))
        assert _count(fam, sub, excluded, _linked(fam)) == listed, sub


def test_count_matches_listing_with_multi_hole_constraints(sensors_family):
    rng = random.Random(11)
    assert_count_matches_listing(rng, sensors_family, 40)
    fam = two_hole_family()
    assert_count_matches_listing(rng, fam)
    fam = constrained(fam, fam.constraints + (
        Not(And((Atom("a", "x"), Atom("b", "u")))),))
    assert _count(fam, initial_subfamily(fam), frozenset(), _linked(fam)) == 2
    assert_count_matches_listing(rng, fam)


def test_count_matches_listing_on_random_families():
    rng = random.Random(31)
    for _ in range(30):
        assert_count_matches_listing(rng, random_family(
            rng, max_states=8, max_realisations=64))


def test_split_requires_inconsistent(example_family):
    verdict = ConsistencyVerdict(Realisation(R1), {}, {})
    with pytest.raises(EngineError):
        split(Subfamily.full(example_family), verdict, example_family)


def test_partition_matches_paper(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = cegar_solve(example_family, SynthesisQuery("partition", spec=spec))
    assert [r.assignment for r in out.T] == [R2, R4]
    assert [r.assignment for r in out.F] == [R1, R3]
    quotient_verifications = sum(1 for rec in out.stats.trace if "min" in rec)
    assert quotient_verifications <= 4


def test_singleton_degenerates_to_direct_check():
    fam = Family(2, 0, (Hole("h", ("a",)),),
                 (((1.0, HoleRef.single("h", {"a": 1})),),
                  ((1.0, Fixed(1)),)))
    out = cegar_solve(fam, SynthesisQuery(
        "partition", spec=Specification(frozenset([1]), ">=", 0.5)))
    assert len(out.T) == 1 and not out.F
    assert out.stats.trace == [{"size": 1, "verdict": "direct", "sat": True}]


def test_feasible(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = cegar_solve(example_family, SynthesisQuery("feasible", spec=spec))
    assert out.kind == "witness"
    assert out.witness.assignment in (R2, R4)
    out = cegar_solve(example_family, SynthesisQuery(
        "feasible", spec=spec, budget=7))
    assert out.kind == "unsat"


def test_max_with_eps(example_family):
    out = cegar_solve(example_family,
                      SynthesisQuery("max", goal=GOAL4, epsilon=0.02))
    assert out.value == pytest.approx(1.0, abs=1e-6)
    assert out.witness.assignment in (R2, R4)


def test_budgeted_max(example_family):
    for budget, expect in ((10, (R2, 1.0, 10)), (9, (R1, 0.0, 8))):
        out = cegar_solve(example_family, SynthesisQuery(
            "max", goal=GOAL4, budget=budget, cost_model="structural"))
        assert (out.witness.assignment, out.value, out.cost) == expect
    out = cegar_solve(example_family, SynthesisQuery(
        "max", goal=GOAL4, budget=7, cost_model="structural"))
    assert out.kind == "unsat"


def test_wholesale_bounds_sound_random():
    # whenever a subfamily is classified without direct checks, every member
    # agrees with the enumeration oracle
    rng = random.Random(2024)
    for _ in range(40):
        fam = random_family(rng, max_states=10, max_realisations=64)
        spec = Specification(random_goal(rng, fam.n_states),
                             rng.choice(("<=", "<", ">=", ">")),
                             round(rng.random(), 3))
        q = SynthesisQuery("partition", spec=spec)
        ours = cegar_solve(fam, q)
        oracle = enum_solve(fam, q)
        assert sorted(r.key(fam) for r in ours.T) == \
            sorted(r.key(fam) for r in oracle.T)


def test_min_agrees_with_oracle():
    rng = random.Random(77)
    for _ in range(20):
        fam = random_family(rng, max_states=10, max_realisations=64)
        goal = random_goal(rng, fam.n_states)
        for kind in ("max", "min"):
            q = SynthesisQuery(kind, goal=goal)
            assert cegar_solve(fam, q).value == \
                pytest.approx(enum_solve(fam, q).value, abs=1e-6)


def test_tiny_exits_partition_is_exact():
    # both members reach the goal with probability 0.5, through exits of
    # 1e-12: a check that stops once a sweep changes little reads about
    # 1e-12 and puts them into F
    fam = tiny_exit_family()
    q = SynthesisQuery("partition",
                       spec=Specification(frozenset([1]), ">=", 0.4))
    for solve in (enum_solve, cegar_solve, cegis_solve):
        out = solve(fam, q)
        assert (len(out.T), len(out.F)) == (2, 0), solve.__name__


@pytest.mark.parametrize("stop_goal, threshold, sat",
                         [(0.3, 0.4, "cycle"), (0.7, 0.6, "stop")])
def test_cycle_exits_partition_is_exact(stop_goal, threshold, sat):
    # "cycle" reaches the goal with probability 0.5 through a two-state
    # cycle whose exits are about 1e-12, "stop" with `stop_goal`: the one-step
    # values of entering the cycle and stopping differ by about 4e-13, and a
    # check that ignores such gains bounds the quotient by `stop_goal` alone
    # and puts both members on one side
    fam = cycle_exit_family(stop_goal)
    q = SynthesisQuery("partition",
                       spec=Specification(frozenset([2]), ">=", threshold))
    for solve in (enum_solve, cegar_solve, cegis_solve):
        out = solve(fam, q)
        assert [r["h"] for r in out.T] == [sat], solve.__name__
        assert len(out.F) == 1, solve.__name__
