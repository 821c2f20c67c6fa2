import random

import pytest

from chainsynth.constraints import Atom, Implies, Not
from chainsynth.engines.base import EngineError, SynthesisQuery
from chainsynth.engines.cegis import (AssignmentSpace, _option_scope,
                                      cegis_solve, conflict_holes,
                                      extract_counterexample, scope_matches,
                                      scope_size)
from chainsynth.engines.enumeration import enum_solve
from chainsynth.family import (Family, Fixed, Hole, Realisation,
                               enumerate_realisations, realise)
from chainsynth.model import Specification, check
from chainsynth.randfam import (bench_family, pruning_family, random_family,
                                random_goal)

from conftest import R1, R2, R3, R4

GOAL4 = frozenset([4])
GOAL2 = frozenset([2])


def constrained(fam, constraints):
    return Family(fam.n_states, fam.init, fam.holes, fam.transitions,
                  constraints=tuple(constraints), cost_model=fam.cost_model)


# --- assignment space -------------------------------------------------------

def test_first_candidate_is_lexicographic(example_family):
    space = AssignmentSpace(example_family)
    assert space.next_candidate().assignment == R1


def test_block_assignment_advances(example_family):
    space = AssignmentSpace(example_family)
    seen = []
    while True:
        r = space.next_candidate()
        if r is None:
            break
        seen.append(r.assignment)
        space.block_assignment(r)
    assert seen == [R1, R2, R3, R4]


def test_learned_scope_prunes(example_family):
    space = AssignmentSpace(example_family)
    space.learn_scope({"k2": frozenset(["2"])})
    assert space.next_candidate().assignment == R3


def test_empty_scope_exhausts(example_family):
    space = AssignmentSpace(example_family)
    space.learn_scope({})
    assert space.next_candidate() is None


def test_space_respects_constraints(example_family):
    fam = constrained(example_family,
                      [Implies(Atom("k2", "2"), Not(Atom("k3", "2")))])
    space = AssignmentSpace(fam)
    seen = []
    while True:
        r = space.next_candidate()
        if r is None:
            break
        seen.append(r.assignment)
        space.block_assignment(r)
    assert R1 not in seen and len(seen) == 3


def test_optionsum_budget_seeds_space():
    fam = Family(1, 0, (Hole("a", ("x", "y"), (1, 5)),
                        Hole("b", ("u", "v"), (0, 7))),
                 (((1.0, Fixed(0)),),), cost_model="optionsum")
    space = AssignmentSpace(fam, budget=5)
    seen = []
    while True:
        r = space.next_candidate()
        if r is None:
            break
        seen.append(tuple(sorted(r.assignment.items())))
        space.block_assignment(r)
    assert seen == [(("a", "x"), ("b", "u")), (("a", "y"), ("b", "u"))]


def test_refuted_options_tried_last(example_family):
    space = AssignmentSpace(example_family)
    r = space.next_candidate()
    space.block_assignment(r)
    space.mark_refuted(r)
    assert space.next_candidate().assignment == R4


# --- counterexamples --------------------------------------------------------

def test_refuting_critical_set(example_family):
    spec = Specification(GOAL2, "<=", 0.4)
    mc = realise(example_family, Realisation(R1))
    critical = extract_counterexample(mc, spec)
    assert critical == frozenset([0])
    assert conflict_holes(example_family, critical) == {"k2"}


def test_refute_scope_covers_r2(example_family):
    scope = _option_scope(example_family, frozenset([0]), Realisation(R1))
    assert scope == {"k2": frozenset(["2"])}
    assert scope_matches(scope, Realisation(R2))
    assert not scope_matches(scope, Realisation(R3))
    assert scope_size(example_family, scope) == 2


def test_establishing_critical_set(example_family):
    spec = Specification(GOAL2, ">=", 0.4)
    mc = realise(example_family, Realisation(R1))
    critical = extract_counterexample(mc, spec)
    # the one-step fragment already guarantees probability 0.5 >= 0.4
    assert critical == frozenset([0])


def test_extraction_mode_preconditions(example_family):
    # the operator fixes the mode: refute an upper bound, establish a lower
    mc = realise(example_family, Realisation(R1))
    with pytest.raises(EngineError):  # candidate satisfies the upper bound
        extract_counterexample(mc, Specification(GOAL2, "<=", 1.0))
    with pytest.raises(EngineError):  # candidate violates the lower bound
        extract_counterexample(mc, Specification(GOAL4, ">=", 0.4))


def test_scope_members_share_verdict_random():
    # every realisation inside a learned scope must fail the spec, validated
    # against direct model checking
    rng = random.Random(31)
    validated = 0
    for _ in range(40):
        fam = random_family(rng, max_states=10, max_realisations=64,
                            allow_constraints=False)
        spec = Specification(random_goal(rng, fam.n_states), "<=",
                             round(rng.uniform(0.05, 0.9), 3))
        for r in enumerate_realisations(fam):
            mc = realise(fam, r)
            sat, _ = check(mc, spec)
            if sat:
                continue
            critical = extract_counterexample(mc, spec)
            scope = _option_scope(fam, critical, r)
            for other in enumerate_realisations(fam):
                if scope_matches(scope, other):
                    osat, _ = check(realise(fam, other), spec)
                    assert not osat
                    validated += 1
            break
    assert validated > 0


# --- solver loop ------------------------------------------------------------

def test_partition_prunes_r2_without_checking(example_family):
    spec = Specification(GOAL2, "<=", 0.4)
    out = cegis_solve(example_family, SynthesisQuery("partition", spec=spec))
    assert [r.assignment for r in out.T] == [R4]
    assert out.stats.checks < 4
    checked = [rec["candidate"] for rec in out.stats.trace]
    assert R1 in checked and R2 not in checked
    assert out.stats.trace[0]["critical"] == [0]


def test_partition_matches_oracle(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = cegis_solve(example_family, SynthesisQuery("partition", spec=spec))
    assert [r.assignment for r in out.T] == [R2, R4]
    assert [r.assignment for r in out.F] == [R1, R3]


def test_feasible_and_budget(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = cegis_solve(example_family, SynthesisQuery("feasible", spec=spec))
    assert out.witness.assignment in (R2, R4)
    out = cegis_solve(example_family,
                      SynthesisQuery("feasible", spec=spec, budget=7))
    assert out.kind == "unsat"


def test_max_min(example_family):
    out = cegis_solve(example_family, SynthesisQuery("max", goal=GOAL4))
    assert out.value == pytest.approx(1.0, abs=1e-6)
    assert out.witness.assignment in (R2, R4)
    out = cegis_solve(example_family, SynthesisQuery("min", goal=GOAL4))
    assert out.value == pytest.approx(0.0, abs=1e-6)
    out = cegis_solve(example_family,
                      SynthesisQuery("max", goal=GOAL4, epsilon=0.02))
    assert out.value >= 0.98 - 1e-9


def test_budgeted_max(example_family):
    for budget, expect in ((10, (R2, 1.0, 10)), (9, (R1, 0.0, 8))):
        out = cegis_solve(example_family, SynthesisQuery(
            "max", goal=GOAL4, budget=budget, cost_model="structural"))
        assert (out.witness.assignment, out.value, out.cost) == expect
    out = cegis_solve(example_family, SynthesisQuery(
        "max", goal=GOAL4, budget=7, cost_model="structural"))
    assert out.kind == "unsat"


def test_non_decomposable_constraints_supported(example_family):
    fam = constrained(example_family,
                      [Implies(Atom("k2", "2"), Not(Atom("k3", "2")))])
    spec = Specification(GOAL4, ">=", 0.1)
    out = cegis_solve(fam, SynthesisQuery("partition", spec=spec))
    assert [r.assignment for r in out.T] == [R2, R4]
    assert [r.assignment for r in out.F] == [R3]


def test_pruning_instance_beats_enumeration():
    fam, spec = pruning_family()
    out = cegis_solve(fam, SynthesisQuery("feasible", spec=spec))
    assert out.kind == "witness"
    assert out.stats.checks < 64
    fam, spec = bench_family()
    out = cegis_solve(fam, SynthesisQuery("feasible", spec=spec))
    assert out.kind == "witness"
    assert out.stats.checks < 0.2 * fam.size()


def test_agreement_with_oracle_random():
    rng = random.Random(13)
    for _ in range(30):
        fam = random_family(rng, max_states=10, max_realisations=64)
        spec = Specification(random_goal(rng, fam.n_states),
                             rng.choice(("<=", "<", ">=", ">")),
                             round(rng.random(), 3))
        q = SynthesisQuery("partition", spec=spec)
        assert sorted(r.key(fam) for r in cegis_solve(fam, q).T) == \
            sorted(r.key(fam) for r in enum_solve(fam, q).T)
