"""Seeded workloads: fixed problem lists over the public chainsynth API.

A problem is one family plus one query; the harness sends it to all three
engines in turn.  A workload's list is a pure function of its seed, so the
same seed gives the same queries, and every pass sends the same list.  The
seed changes thresholds and probabilities but not how much work the list
takes: families, goals, budgets and the verdict splits are fixed per
problem or family (common random numbers).

- many-small: a `randfam.random_family` per problem, no family shared
  between problems; every list the harness asks for has its own hole names,
  so no family is sent twice; per-call overhead dominates.
- wide-family: small chains with large option spaces (`bench_family`,
  `pruning_family`, multi-hole families with optionsum and structural
  budgets); the engines and family layers dominate.
- deep-chain: grid sketches generated as text, elaborated once, each queried
  repeatedly with a sweep of thresholds and goals; the model layer dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from chainsynth import Family, Fixed, Hole, HoleRef, SynthesisQuery
from chainsynth import Specification, sketch
from chainsynth.constraints import Atom, Not
from chainsynth.randfam import (bench_family, pruning_family, random_family,
                                random_goal)

import oracle

OPS = ("<=", "<", ">=", ">")
KINDS = ("feasible", "partition", "max", "min")


@dataclass
class Problem:
    pid: int
    family_id: str
    fam: Family
    query: SynthesisQuery
    analytic_t: Optional[int] = None  # |T| known in closed form


@dataclass
class Inputs:
    """What set-up builds: the families every pass reuses."""

    families: dict = field(default_factory=dict)  # family_id -> Family
    goals: dict = field(default_factory=dict)  # family_id -> goals, specs
    problems: list = field(default_factory=list)  # many-small only


class MemberTables:
    """Oracle member tables per (family, goal, cost model), computed once."""

    def __init__(self):
        self.tables = {}

    def table(self, family_id, fam, goal, cost_model=None):
        key = (family_id, goal, cost_model)
        if key not in self.tables:
            self.tables[key] = oracle.member_table(fam, goal, cost_model)
        return self.tables[key]

    def for_problem(self, p: Problem):
        q = p.query
        goal = q.goal if q.goal is not None else q.spec.goal
        model = (q.cost_model or p.fam.cost_model) if q.budget is not None \
            else None
        return self.table(p.family_id, p.fam, goal, model)


# ---------------------------------------------------------------------------
# many-small


MANY_SMALL_PROBLEMS = 360


def _many_small_problem(pid):
    """Problem pid without its threshold: the same family, goal, kind,
    operator, budget and threshold position under every seed (common random
    numbers).  A few problems make cegar take tens of milliseconds; when the
    seed drew the thresholds and budgets, which problems those were set
    cegar.solve_s apart by 0.15 (IQR / median) over five seeds.  At most 16
    members: with 64, one cegar query could take half of a pass's cegar
    time."""
    fam = random_family(random.Random("many-small-family:%d" % pid),
                        max_states=30, max_realisations=16)
    goal = random_goal(random.Random("many-small-goal:%d" % pid),
                       fam.n_states)
    rng = random.Random("many-small:%d" % pid)
    kind = KINDS[pid % 4]
    kw = {}
    if kind in ("feasible", "partition"):
        # placeholder threshold: the seed places it in ManySmall.problems
        kw["spec"] = Specification(goal, rng.choice(OPS), rng.random())
    else:
        kw["goal"] = goal
        if pid % 8 >= 4:
            kw["epsilon"] = 0.1
    if pid % 5 == 0:
        lo = sum(min(h.costs) for h in fam.holes)
        hi = sum(max(h.costs) for h in fam.holes)
        kw["budget"] = rng.randint(lo, hi)
    return Problem(pid, "ms%d" % pid, fam, SynthesisQuery(kind, **kw))


def _same_split_threshold(values, t, u):
    """A threshold that splits the members' values where t does, placed at
    fraction u of the way across the gap that holds t.  Gaps narrower than
    1e-4 (the engines' comparison tolerance is far below) are not used."""
    distinct = sorted(set(float(v) for v in values))
    gaps = [(a, b) for a, b in zip([0.0] + distinct, distinct + [1.0])
            if b - a > 1e-4]
    a, b = min(gaps, key=lambda g: 0.0 if g[0] <= t <= g[1]
               else min(abs(t - g[0]), abs(t - g[1])))
    return a + (b - a) * (0.25 + 0.5 * u)


def renamed(fam, tag):
    """The same family with every hole renamed `<name>_<tag>`: a new object
    with new content that takes exactly the same work to solve.  Option
    labels, and so realisation keys and T digests, are unchanged."""
    name = lambda h: "%s_%s" % (h, tag)
    holes = tuple(replace(h, name=name(h.name)) for h in fam.holes)
    rows = tuple(tuple((p, HoleRef(tuple(map(name, t.hole_names)), t.table)
                        if isinstance(t, HoleRef) else t) for p, t in row)
                 for row in fam.transitions)
    # random_family only makes constraints of the form (not (= hole option))
    cons = tuple(Not(Atom(name(c.arg.hole), c.arg.option))
                 for c in fam.constraints)
    return replace(fam, holes=holes, transitions=rows, constraints=cons)


class ManySmall:
    """Every pass sends the same MANY_SMALL_PROBLEMS problems, each on its
    own family, so the work per pass is fixed by the seed.  The seed moves
    each feasible and partition threshold within the gap between member
    values that holds it, so that every seed asks for the same split of the
    members.  Each pass gets the families with its own hole names: no family
    object and no family content is ever sent twice, and a cache keyed on
    either has nothing to reuse."""

    name = "many-small"

    def __init__(self, seed):
        self.seed = seed
        self._list = None

    def setup(self):
        return Inputs(problems=[_many_small_problem(pid)
                                for pid in range(MANY_SMALL_PROBLEMS)])

    def problems(self, inputs, tables, serial):
        if self._list is None:
            self._list = self._place_thresholds(inputs.problems, tables)
        return [replace(p, fam=renamed(p.fam, "p%d" % serial))
                for p in self._list]

    def _place_thresholds(self, problems, tables):
        rng = random.Random("many-small-thresholds:%d" % self.seed)
        out = []
        for p in problems:
            spec = p.query.spec
            if spec is not None:
                values = tables.table(p.family_id, p.fam, spec.goal).values
                spec = replace(spec, threshold=_same_split_threshold(
                    values, spec.threshold, rng.random()))
                p = replace(p, query=replace(p.query, spec=spec))
            out.append(p)
        return out


# ---------------------------------------------------------------------------
# wide-family


def multi_hole_family(family_id, n_states, n_options):
    """Chain over n_states whose branches resolve through one or two holes.

    The whole family is fixed by its id so that the work per query is the
    same under every seed: with seeded branch weights and option costs,
    cegar's time on one query ranged over 2.5x between seeds."""
    shape = random.Random(family_id)
    holes = tuple(Hole("h%d" % i, tuple("o%d" % j for j in range(k)),
                       tuple(shape.randint(0, 6) for _ in range(k)))
                  for i, k in enumerate(n_options))
    goal, dead = n_states - 1, n_states - 2
    rows = []
    for s in range(n_states):
        if s in (goal, dead):
            rows.append(((1.0, Fixed(s)),))
            continue
        targets = []
        for _ in range(shape.randint(2, 3)):
            u = shape.random()
            if u < 0.45:
                h = shape.choice(holes)
                targets.append(HoleRef.single(
                    h.name, {o: shape.randrange(n_states) for o in h.options}))
            elif u < 0.6:
                a, b = shape.sample(holes, 2)
                targets.append(HoleRef((a.name, b.name), {
                    (x, y): shape.randrange(n_states)
                    for x in a.options for y in b.options}))
            else:
                targets.append(Fixed(shape.randrange(n_states)))
        weights = [shape.randint(1, 5) for _ in targets]
        total = sum(weights)
        rows.append(tuple((w / total, t) for w, t in zip(weights, targets)))
    return Family(n_states, 0, holes, tuple(rows), cost_model="optionsum")


# (family id, n_route, n_mid, n_tail); |T| = n_mid * n_tail analytically.
# Sizes keep a pass near three seconds, so that a run repeats each query
# about ten times: the default bench_family (11200 members) alone took
# 3.6 s for its two queries.
BENCH_SIZES = (("bench-1800", 24, 15, 5), ("bench-1200", 20, 12, 5),
               ("bench-640", 16, 10, 4), ("bench-288", 12, 8, 3))
PRUNING_SIZES = (("pruning-32", 32), ("pruning-48", 48), ("pruning-64", 64),
                 ("pruning-96", 96), ("pruning-128", 128))
# (family id, states, option counts)
MULTI_HOLE = (("multi-a", 10, (4, 3, 3, 2)), ("multi-b", 8, (6, 5, 3)),
              ("multi-c", 8, (4, 4, 3, 2)))


class WideFamily:
    name = "wide-family"

    def __init__(self, seed):
        self.seed = seed
        self._list = None

    def setup(self):
        inputs = Inputs()
        for fid, n_route, n_mid, n_tail in BENCH_SIZES:
            fam, spec = bench_family(n_route, n_mid, n_tail)
            inputs.families[fid] = fam
            inputs.goals[fid] = {"spec": spec, "t": n_mid * n_tail}
        for fid, n in PRUNING_SIZES:
            fam, spec = pruning_family(n)
            inputs.families[fid] = fam
            inputs.goals[fid] = {"spec": spec, "t": 1}  # only the last option
        for fid, n, opts in MULTI_HOLE:
            fam = multi_hole_family(fid, n, opts)
            inputs.families[fid] = fam
            inputs.goals[fid] = {"goal": frozenset([n - 1])}
        return inputs

    def problems(self, inputs, tables, serial):
        if self._list is None:
            self._list = self._make(inputs, tables)
        return self._list

    def _make(self, inputs, tables):
        rng = random.Random("wide-family-queries:%d" % self.seed)
        out = []

        def add(fid, q, analytic_t=None):
            out.append(Problem(len(out), fid, inputs.families[fid], q,
                               analytic_t))

        for fid in [b[0] for b in BENCH_SIZES] + [p[0] for p in PRUNING_SIZES]:
            spec, t = inputs.goals[fid]["spec"], inputs.goals[fid]["t"]
            # same goal, threshold drawn so the verdict split is unchanged
            spec = Specification(spec.goal, spec.op,
                                 round(rng.uniform(0.05, 0.5), 3))
            add(fid, SynthesisQuery("partition", spec=spec), t)
            add(fid, SynthesisQuery("feasible", spec=spec))
            if fid.startswith("pruning"):
                # not on bench families: cegis refutes a bound above the
                # optimum member by member, minutes on 11200 members
                add(fid, SynthesisQuery("max", goal=spec.goal))
        for fid, n, _ in MULTI_HOLE:
            fam = inputs.families[fid]
            goal = inputs.goals[fid]["goal"]
            table = tables.table(fid, fam, goal, "optionsum")
            mid = _gap_threshold(table.values, 0.5)
            costs = sorted(table.costs.tolist())
            budget = costs[len(costs) // 2]
            structural = tables.table(fid, fam, goal, "structural")
            s_budget = sorted(structural.costs.tolist())[len(costs) // 3]
            add(fid, SynthesisQuery("partition", spec=Specification(
                goal, ">=", mid), budget=budget))
            add(fid, SynthesisQuery("feasible", spec=Specification(
                goal, "<=", mid), budget=s_budget, cost_model="structural"))
            add(fid, SynthesisQuery("max", goal=goal, epsilon=0.1))
            add(fid, SynthesisQuery("min", goal=goal, budget=budget))
        return out


# ---------------------------------------------------------------------------
# deep-chain


def grid_sketch(family_id, rng, width, height, zones, hazards):
    """Sketch text of a robot on a width x height grid heading for the far
    corner.  The grid is cut into vertical zones; hole @zK@ picks the move
    the robot intends inside zone K (east or north).  Hazard rectangles add
    a crash probability; a slip moves the robot back west.

    The geometry and the option costs are fixed by the family id so that
    the work per query stays comparable across seeds; `rng` draws the slip
    and crash probabilities.  With seeded costs, the budget of the `min`
    query changed which members it admits, and cegis's model-checker calls
    on it ranged over 4x between seeds."""
    shape = random.Random(family_id)
    slip = round(rng.uniform(0.10, 0.20), 2)
    crash = round(rng.uniform(0.03, 0.08), 3)
    rects = []
    for _ in range(hazards):
        x0, y0 = shape.randrange(0, width - 2), shape.randrange(0, height - 2)
        w = shape.randint(2, max(2, width // 2))
        h = shape.randint(2, max(2, height // 2))
        rects.append("(x >= %d & x < %d & y >= %d & y < %d)"
                     % (x0, x0 + w, y0, y0 + h))
    hazard = "(" + " | ".join(rects) + ")"
    xm, ym = width - 1, height - 1
    lines = ["hole @z%d@ either { e%d is 1 cost %d, n%d is 0 cost %d }"
             % (k, k, shape.randint(1, 4), k, shape.randint(1, 4))
             for k in range(zones)]
    lines += ["module grid", "x : [0..%d] init 0;" % xm,
              "y : [0..%d] init 0;" % ym,
              "c : [0..2] init 0;",  # 0 moving, 1 crashed, 2 arrived
              "c > 0 -> 1: c'=c;",
              "c = 0 & x = %d & y = %d -> 1: c'=2;" % (xm, ym)]
    bounds = [round(width * k / zones) for k in range(zones + 1)]
    for k in range(zones):
        zone = "c = 0 & x >= %d & x < %d" % (bounds[k], bounds[k + 1])
        for hz in (False, True):
            hg = hazard if hz else "!%s" % hazard
            for edge, move in (
                    ("x < %d & y < %d" % (xm, ym),
                     "x'=x+@z%d@ & y'=y+1-@z%d@" % (k, k)),
                    ("x = %d & y < %d" % (xm, ym), "y'=y+1"),
                    ("x < %d & y = %d" % (xm, ym), "x'=x+1")):
                for west, back in (("x > 0", "x'=x-1"), ("x = 0", "y'=y")):
                    if hz:
                        body = "%g: %s + %g: %s + %g: c'=1" % (
                            1 - slip - crash, move, slip, back, crash)
                    else:
                        body = "%g: %s + %g: %s" % (1 - slip, move, slip, back)
                    lines.append("%s & %s & %s & %s -> %s;"
                                 % (zone, hg, edge, west, body))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# (family id, width, height, zones, hazard rectangles)
GRIDS = (("grid-a", 7, 7, 3, 2), ("grid-b", 8, 6, 3, 2),
         ("grid-c", 6, 8, 3, 2), ("grid-d", 7, 6, 3, 2),
         ("grid-e", 7, 7, 3, 3))


def _gap_threshold(values, q):
    """A threshold between two distinct member values near quantile q, so
    that no member sits within the comparison tolerance of it."""
    distinct = sorted(set(round(float(v), 9) for v in values))
    if len(distinct) == 1:
        v = distinct[0]
        return round(v - 0.01, 6) if v >= 0.5 else round(v + 0.01, 6)
    gaps = [(abs(i - q * (len(distinct) - 1)), i) for i in
            range(1, len(distinct)) if distinct[i] - distinct[i - 1] > 1e-4]
    if not gaps:
        return round(distinct[-1] + 0.01, 6) if distinct[-1] < 0.99 \
            else round(distinct[0] - 0.01, 6)
    i = min(gaps)[1]
    return (distinct[i - 1] + distinct[i]) / 2


def deep_chain_texts(seed):
    rng = random.Random("deep-chain:%d" % seed)
    return [(fid, grid_sketch(fid, rng, w, h, z, nh))
            for fid, w, h, z, nh in GRIDS]


class DeepChain:
    name = "deep-chain"

    def __init__(self, seed):
        self.seed = seed
        self.texts = deep_chain_texts(seed)
        self._list = None

    def setup(self):
        inputs = Inputs()
        for fid, text in self.texts:
            fam = sketch.elaborate(sketch.parse(text))
            inputs.families[fid] = fam
            inputs.goals[fid] = {"arrive": sketch.goal_states(fam, "c=2"),
                                 "crash": sketch.goal_states(fam, "c=1")}
        return inputs

    def problems(self, inputs, tables, serial):
        if self._list is None:
            self._list = self._make(inputs, tables)
        return self._list

    def _make(self, inputs, tables):
        out = []
        for fid, _, _, _, _ in GRIDS:
            fam = inputs.families[fid]
            arrive = inputs.goals[fid]["arrive"]
            crash = inputs.goals[fid]["crash"]
            va = tables.table(fid, fam, arrive).values
            vc = tables.table(fid, fam, crash).values
            costs = sorted(tables.table(fid, fam, arrive, "optionsum")
                           .costs.tolist())
            budget = costs[len(costs) // 2]
            qs = [
                SynthesisQuery("partition", spec=Specification(
                    arrive, ">=", _gap_threshold(va, 0.5))),
                SynthesisQuery("partition", spec=Specification(
                    crash, "<=", _gap_threshold(vc, 0.5))),
                SynthesisQuery("feasible", spec=Specification(
                    arrive, ">=", _gap_threshold(va, 0.85))),
                SynthesisQuery("feasible", spec=Specification(
                    crash, "<", _gap_threshold(vc, 0.15))),
                SynthesisQuery("max", goal=arrive),
                SynthesisQuery("min", goal=arrive, budget=budget,
                               cost_model="optionsum"),
                SynthesisQuery("max", goal=crash, epsilon=0.1),
            ]
            for q in qs:
                out.append(Problem(len(out), fid, fam, q))
        return out


WORKLOADS = {w.name: w for w in (ManySmall, WideFamily, DeepChain)}
