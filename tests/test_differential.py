"""Differential test: every engine against enum on seeded random families
and on families whose targets and constraints read two holes, over all four
query kinds, budgets under both cost models and eps-queries."""

import random

from chainsynth import ENGINES
from chainsynth.constraints import And, Atom, Not
from chainsynth.engines.base import SynthesisQuery
from chainsynth.family import (Family, Fixed, Hole, HoleRef, cost,
                               enumerate_realisations, realise)
from chainsynth.model import Specification, compare, reach_probability
from chainsynth.randfam import random_family, random_goal

N_FAMILIES = 100
N_MULTI_HOLE = 40
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
        if budget is None:
            model = None  # a cost model prices only a budget
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


def multi_hole_family(rng):
    """Up to 27 members over three holes.  Targets read one or two holes
    and one constraint forbids a pair of options of two holes.  Tables
    point into three states, so options are often interchangeable, and in
    some states two branches of probability 0.5 swap successors: every
    option selects the same distribution there although the branches'
    tables differ.  Learned scopes span several holes and options."""
    n = rng.randint(4, 12)
    pool = rng.sample(range(n), 3)
    holes = []
    for i in range(3):
        k = rng.randint(2, 3)
        holes.append(Hole("m%d" % i, tuple("o%d" % j for j in range(k)),
                          tuple(rng.randint(0, 4) for _ in range(k))))
    rows = []
    for s in range(n):
        if rng.random() < 0.2:
            h = rng.choice(holes)
            x, y = rng.sample(pool, 2)
            flip = {o: rng.random() < 0.5 for o in h.options}
            rows.append(tuple(
                (0.5, HoleRef.single(h.name, {o: (a, b)[flip[o]]
                                              for o in h.options}))
                for a, b in ((x, y), (y, x))))
            continue
        weights = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        row = []
        for w in weights:
            u = rng.random()
            if u < 0.35:
                a, b = rng.sample(holes, 2)
                tgt = HoleRef((a.name, b.name), {
                    (x, y): rng.choice(pool)
                    for x in a.options for y in b.options})
            elif u < 0.7:
                h = rng.choice(holes)
                tgt = HoleRef.single(h.name, {o: rng.choice(pool)
                                              for o in h.options})
            else:
                tgt = Fixed(rng.randrange(n))
            row.append((w / sum(weights), tgt))
        rows.append(tuple(row))
    a, b = rng.sample(holes, 2)
    forbid = Not(And((Atom(a.name, rng.choice(a.options)),
                      Atom(b.name, rng.choice(b.options)))))
    return Family(n, 0, tuple(holes), tuple(rows), constraints=(forbid,),
                  cost_model="optionsum")


def _cases():
    rng = random.Random(31337)
    for i in range(N_FAMILIES):
        fam = random_family(rng, max_states=rng.randint(4, 30),
                            max_realisations=64)
        for j, q in enumerate(_queries(rng, fam)):
            yield i, j, fam, q


def _multi_hole_cases():
    rng = random.Random(4242)
    for i in range(N_MULTI_HOLE):
        fam = multi_hole_family(rng)
        for j, q in enumerate(_queries(rng, fam)):
            yield i, j, fam, q


def _all_agree(cases):
    count = 0
    for i, j, fam, q in cases:
        ref = ENGINES["enum"](fam, q)
        for name, solve in ENGINES.items():
            try:
                _agrees(fam, q, ref, solve(fam, q))
            except AssertionError as exc:
                raise AssertionError("family %d, query %d (%s): %s disagrees "
                                     "with enum" % (i, j, q, name)) from exc
        count += 1
    return count


def test_engines_agree_with_enum():
    assert _all_agree(_cases()) == 6 * N_FAMILIES


def test_engines_agree_with_enum_on_multi_hole_families():
    assert _all_agree(_multi_hole_cases()) == 6 * N_MULTI_HOLE
