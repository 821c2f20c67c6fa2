import math

import pytest

from chainsynth.constraints import And, Atom, Not
from chainsynth.engines import enumeration
from chainsynth.engines.base import EngineError, SynthesisQuery
from chainsynth.engines.enumeration import ENUM_BOUND, enum_solve
from chainsynth.family import Family, Fixed, Hole
from chainsynth.model import Specification

from conftest import R1, R2, R3, R4

GOAL4 = frozenset([4])
GOAL2 = frozenset([2])


def test_query_validation():
    spec = Specification(GOAL4, ">=", 0.1)
    for kind, kw in [
            ("bogus", {}),
            ("feasible", {}),
            ("max", {}),
            ("max", {"goal": GOAL4, "epsilon": 0.0}),
            ("min", {"goal": GOAL4, "epsilon": 1.0}),
            # flags the query kind does not honour
            ("partition", {"spec": spec, "epsilon": 0.5}),
            ("feasible", {"spec": spec, "goal": GOAL4}),
            ("max", {"goal": GOAL4, "spec": spec}),
            # a cost model must be known and price a budget
            ("max", {"goal": GOAL4, "budget": 9, "cost_model": "bogus"}),
            ("max", {"goal": GOAL4, "cost_model": "structural"}),
            # a tolerance must be finite and non-negative
            ("partition", {"spec": spec, "tolerance": -1e-9}),
            ("partition", {"spec": spec, "tolerance": math.nan}),
            ("max", {"goal": GOAL4, "tolerance": math.inf})]:
        with pytest.raises(EngineError):
            SynthesisQuery(kind, **kw)
    assert SynthesisQuery("partition", spec=spec, tolerance=0.0).tolerance == 0


def test_feasible_first_witness(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = enum_solve(example_family, SynthesisQuery("feasible", spec=spec))
    assert out.kind == "witness"
    assert out.witness.assignment == R2  # lexicographically first satisfier
    assert out.value == pytest.approx(1.0)


def test_feasible_unsat_and_strict(example_family):
    out = enum_solve(example_family,
                     SynthesisQuery("feasible",
                                    spec=Specification(GOAL2, "<", 1e-12),
                                    tolerance=1e-13))
    # only r4 avoids state 2 entirely
    assert out.witness.assignment == R4
    out = enum_solve(example_family, SynthesisQuery(
        "feasible", spec=Specification(GOAL4, ">=", 0.1), budget=7))
    assert out.kind == "unsat"


def test_partition(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = enum_solve(example_family, SynthesisQuery("partition", spec=spec))
    assert [r.assignment for r in out.T] == [R2, R4]
    assert [r.assignment for r in out.F] == [R1, R3]
    assert out.stats.checks == 4


def test_max_min(example_family):
    out = enum_solve(example_family, SynthesisQuery("max", goal=GOAL4))
    assert out.value == pytest.approx(1.0)
    assert out.witness.assignment in (R2, R4)
    out = enum_solve(example_family, SynthesisQuery("min", goal=GOAL4))
    assert out.value == pytest.approx(0.0)
    assert out.witness.assignment in (R1, R3)


def test_budgeted_max(example_family):
    q = lambda b: SynthesisQuery("max", goal=GOAL4, budget=b,
                                 cost_model="structural")
    out = enum_solve(example_family, q(10))
    assert (out.witness.assignment, out.value, out.cost) == (R2, 1.0, 10)
    out = enum_solve(example_family, q(9))
    assert (out.witness.assignment, out.value, out.cost) == (R1, 0.0, 8)
    assert enum_solve(example_family, q(7)).kind == "unsat"


def test_eps_optimal_takes_first_close_enough(example_family):
    out = enum_solve(example_family,
                     SynthesisQuery("max", goal=GOAL4, epsilon=0.02))
    assert out.value == pytest.approx(1.0)
    assert out.witness.assignment == R2  # first within (1-eps) of the optimum


def test_partition_with_budget(example_family):
    spec = Specification(GOAL4, ">=", 0.1)
    out = enum_solve(example_family, SynthesisQuery(
        "partition", spec=spec, budget=10, cost_model="structural"))
    assert [r.assignment for r in out.T] == [R2]  # r4 satisfies but costs 11
    assert len(out.F) == 3


def test_family_beyond_enum_bound_is_refused_before_any_check(monkeypatch):
    # 101**3 members, or 101 fewer under a constraint over two holes: both
    # exceed ENUM_BOUND, so no query kind realises a single member, even a
    # feasible query that the first member would satisfy
    options = tuple("o%d" % i for i in range(101))
    holes = tuple(Hole(h, options) for h in "abc")
    rows = (((1.0, Fixed(0)),),)
    realised = []
    monkeypatch.setattr(enumeration, "realise",
                        lambda fam, r: realised.append(r))
    spec = Specification(frozenset([0]), ">=", 0.5)
    for constraints in ((), (Not(And((Atom("a", "o0"), Atom("b", "o0")))),)):
        fam = Family(1, 0, holes, rows, constraints=constraints)
        for q in (SynthesisQuery("feasible", spec=spec),
                  SynthesisQuery("partition", spec=spec),
                  SynthesisQuery("max", goal=spec.goal),
                  SynthesisQuery("min", goal=spec.goal)):
            with pytest.raises(EngineError,
                               match="enumeration bound %d" % ENUM_BOUND):
                enum_solve(fam, q)
    assert realised == []
