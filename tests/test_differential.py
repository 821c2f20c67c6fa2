"""Differential test: every engine against enum on seeded random families,
over all four query kinds, budgets under both cost models and eps-queries."""

import random

from chainsynth import ENGINES
from chainsynth.engines.base import SynthesisQuery
from chainsynth.family import cost, enumerate_realisations, realise
from chainsynth.model import Specification, compare, reach_probability
from chainsynth.randfam import random_family, random_goal

N_FAMILIES = 100
VALUE_TOL = 1e-6


def _queries(rng, fam):
    """Six queries on one family: feasible, partition, max, min and the
    last two with eps = 0.1, each with a budget two times in three."""
    spec = Specification(random_goal(rng, fam.n_states),
                         rng.choice(("<=", "<", ">=", ">")),
                         round(rng.random(), 3))
    shapes = [("feasible", None), ("partition", None), ("max", None),
              ("min", None), ("max", 0.1), ("min", 0.1)]
    for kind, eps in shapes:
        model = rng.choice(("structural", "optionsum"))
        budget = None
        if rng.random() < 2 / 3:
            costs = sorted({cost(fam, r, model)
                            for r in enumerate_realisations(fam)})
            budget = rng.choice(costs + [costs[0] - 1])
        if kind in ("feasible", "partition"):
            yield SynthesisQuery(kind, spec=spec, budget=budget,
                                 cost_model=model)
        else:
            yield SynthesisQuery(kind, goal=spec.goal, epsilon=eps,
                                 budget=budget, cost_model=model)


def _value(fam, r, goal):
    mc = realise(fam, r)
    return float(reach_probability(mc, goal)[mc.init])


def _within_budget(fam, q, r):
    return q.budget is None or cost(fam, r, q.cost_model) <= q.budget


def _agrees(fam, q, ref, out):
    if q.kind == "partition":
        assert out.kind == "partition"
        assert {r.key(fam) for r in out.T} == {r.key(fam) for r in ref.T}
        return
    assert out.kind == ref.kind
    if out.kind == "unsat":
        return
    r = out.witness
    assert _within_budget(fam, q, r)
    if q.budget is not None:
        assert out.cost == cost(fam, r, q.cost_model)
    goal = q.goal if q.goal is not None else q.spec.goal
    value = _value(fam, r, goal)
    assert abs(value - out.value) <= VALUE_TOL
    if q.kind == "feasible":
        assert compare(value, q.spec.op, q.spec.threshold, q.tolerance)
        return
    exact = ENGINES["enum"](fam, SynthesisQuery(
        q.kind, goal=q.goal, budget=q.budget, cost_model=q.cost_model)).value
    eps = q.epsilon or 0.0
    if q.kind == "max":
        assert value >= (1.0 - eps) * exact - VALUE_TOL
    else:
        assert value * (1.0 - eps) <= exact + VALUE_TOL


def _cases():
    rng = random.Random(31337)
    for i in range(N_FAMILIES):
        fam = random_family(rng, max_states=rng.randint(4, 30),
                            max_realisations=64)
        for j, q in enumerate(_queries(rng, fam)):
            yield i, j, fam, q


def test_engines_agree_with_enum():
    cases = 0
    for i, j, fam, q in _cases():
        ref = ENGINES["enum"](fam, q)
        for name, solve in ENGINES.items():
            try:
                _agrees(fam, q, ref, solve(fam, q))
            except AssertionError as exc:
                raise AssertionError("family %d, query %d (%s): %s disagrees "
                                     "with enum" % (i, j, q, name)) from exc
        cases += 1
    assert cases == 6 * N_FAMILIES
