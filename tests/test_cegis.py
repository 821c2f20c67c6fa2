import itertools
import math
import random

import pytest

from chainsynth import model
from chainsynth.cli import main
from chainsynth.constraints import Atom, Implies, Not
from chainsynth.engines import cegis, enumeration
from chainsynth.engines.base import EngineError, SynthesisQuery
from chainsynth.engines.cegis import (AssignmentSpace, _option_scope,
                                      cegis_solve, extract_counterexample,
                                      scope_size)
from chainsynth.engines.enumeration import ENUM_BOUND, enum_solve
from chainsynth.family import (Family, Fixed, Hole, HoleRef, Realisation,
                               enumerate_realisations, realise)
from chainsynth.model import (Distribution, MarkovChain, Specification, check,
                              compare, reach_probability, sub_mc)
from chainsynth.randfam import (bench_family, pruning_family, random_chain,
                                random_critical, random_family, random_goal)

from conftest import R1, R2, R3, R4, in_scope, toy_path

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
        space.block_assignment(r, False)
    assert seen == [R1, R2, R3, R4]


def test_learned_scope_prunes(example_family):
    space = AssignmentSpace(example_family)
    space.learn_scope({"k2": frozenset(["2"])}, False)
    assert space.next_candidate().assignment == R3


def test_empty_scope_exhausts(example_family):
    space = AssignmentSpace(example_family)
    space.learn_scope({}, False)
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
        space.block_assignment(r, False)
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
        space.block_assignment(r, False)
    assert seen == [(("a", "x"), ("b", "u")), (("a", "y"), ("b", "u"))]


def test_refuted_options_tried_last(example_family):
    space = AssignmentSpace(example_family)
    r = space.next_candidate()
    space.block_assignment(r, False)
    space.mark_refuted(r)
    assert space.next_candidate().assignment == R4
    # a run of refutations against the order they define: each hole's
    # options unrefuted first, by index, then least recently refuted
    opts = ("o0", "o1", "o2")
    fam = Family(1, 0, (Hole("a", opts), Hole("b", opts)),
                 (((1.0, Fixed(0)),),))
    space = AssignmentSpace(fam)
    stamps = {"a": [0, 0, 0], "b": [0, 0, 0]}
    tried = []
    for step in range(1, 10):
        order = [sorted(range(3), key=stamps[h].__getitem__) for h in "ab"]
        want = next(m for m in itertools.product(*order) if m not in tried)
        r = space.next_candidate()
        assert (r["a"], r["b"]) == (opts[want[0]], opts[want[1]]), step
        tried.append(want)
        space.block_assignment(r, False)
        space.mark_refuted(r)
        stamps["a"][want[0]] = stamps["b"][want[1]] = step
    assert tried[:5] == [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)]
    assert space.next_candidate() is None


def test_first_verdict_stands(example_family):
    space = AssignmentSpace(example_family)
    space.learn_scope({"k2": frozenset(["2"])}, False)
    space.learn_scope({}, True)  # only R3 and R4 are still open
    assert space.verdicts.tolist() == [[0, 0], [1, 1]]
    assert space.next_candidate() is None


def test_space_beyond_enum_bound_is_engine_error():
    # 101**3 option combinations exceed ENUM_BOUND; no array is allocated
    options = tuple("o%d" % i for i in range(101))
    fam = Family(1, 0, tuple(Hole(h, options) for h in "abc"),
                 (((1.0, Fixed(0)),),))
    assert fam.size() > ENUM_BOUND
    with pytest.raises(EngineError, match="enumeration bound"):
        cegis_solve(fam, SynthesisQuery("max", goal=frozenset([0])))


# --- counterexamples --------------------------------------------------------

def test_refuting_critical_set(example_family):
    spec = Specification(GOAL2, "<=", 0.4)
    mc = realise(example_family, Realisation(R1))
    critical = extract_counterexample(mc, spec)
    assert critical == frozenset([0])
    # the conflict holes, those the critical states' transitions read
    assert set(_option_scope(example_family, critical,
                             Realisation(R1))) == {"k2"}


def test_refute_scope_covers_r2(example_family):
    scope = _option_scope(example_family, frozenset([0]), Realisation(R1))
    assert scope == {"k2": frozenset(["2"])}
    assert in_scope(scope, Realisation(R2))
    assert not in_scope(scope, Realisation(R3))
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
                if in_scope(scope, other):
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


@pytest.mark.parametrize("query, checks, candidates, n_true", [
    ("bench partition", 177, 177, 175),
    ("bench feasible", 3, 3, None),
    ("pruning partition", 2, 2, 1),
    ("bench-8-10-5 max", 400, 401, None),
])
def test_search_order_is_pinned(query, checks, candidates, n_true):
    # the synthesiser's candidate order fixes these counts exactly
    name, kind = query.split()
    fam, spec = {"bench": bench_family, "pruning": pruning_family,
                 "bench-8-10-5": lambda: bench_family(8, 10, 5)}[name]()
    q = SynthesisQuery(kind, goal=spec.goal) if kind == "max" \
        else SynthesisQuery(kind, spec=spec)
    out = cegis_solve(fam, q)
    assert (out.stats.checks, out.stats.candidates) == (checks, candidates)
    if n_true is not None:
        assert len(out.T) == n_true


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


def test_returned_witness_is_never_extracted(monkeypatch, example_family):
    # a witness ends its search, so no critical set is extracted for it:
    # feasible >= and max never extract from the member they return, and
    # min only refutes it in a later round
    calls = []
    extract = cegis.extract_counterexample

    def counted(mc, spec, tol=1e-6, *args):
        calls.append((mc, spec))
        return extract(mc, spec, tol, *args)

    monkeypatch.setattr(cegis, "extract_counterexample", counted)
    pruning, _ = pruning_family(16)
    for fam, goal in ((example_family, GOAL4), (pruning, frozenset([3]))):
        for q in (SynthesisQuery("feasible",
                                 spec=Specification(goal, ">=", 0.1)),
                  SynthesisQuery("max", goal=goal),
                  SynthesisQuery("min", goal=goal)):
            calls.clear()
            out = cegis_solve(fam, q)
            expect = enum_solve(fam, q)
            assert out.kind == expect.kind == "witness"
            assert out.value == pytest.approx(expect.value, abs=1e-6)
            witness = realise(fam, out.witness)
            on_witness = [spec for mc, spec in calls if mc == witness]
            if q.kind == "min":
                assert all(not check(witness, spec, 1e-9)[0]
                           for spec in on_witness), on_witness
            else:
                assert not on_witness, (q.kind, on_witness)


def random_queries(rng, n):
    """Seeded cegis queries of all four kinds on random families, some with
    a two-hole constraint, an optionsum or structural budget, or an eps."""
    for _ in range(n):
        fam = random_family(rng, max_states=12, max_realisations=32)
        if len(fam.holes) > 1 and rng.random() < 0.4:
            a, b = rng.sample(fam.holes, 2)
            fam = constrained(fam, fam.constraints + (Implies(
                Atom(a.name, a.options[0]), Not(Atom(b.name, b.options[0]))),))
        goal = random_goal(rng, fam.n_states)
        kind = rng.choice(("feasible", "partition", "max", "min"))
        budget = dict(budget=rng.randint(2, 10), cost_model=rng.choice(
            ("optionsum", "structural"))) if rng.random() < 0.4 else {}
        if kind in ("feasible", "partition"):
            spec = Specification(goal, rng.choice(("<=", "<", ">=", ">")),
                                 round(rng.random(), 3))
            yield fam, SynthesisQuery(kind, spec=spec, **budget)
        else:
            yield fam, SynthesisQuery(kind, goal=goal, **budget,
                                      epsilon=rng.choice((None, 0.1)))


def test_conflict_cut_is_exact(monkeypatch):
    # a conflict whose scope can classify nothing but the candidate blocks
    # the candidate alone; extracting it in full must give the same outcome,
    # counts and final verdict arrays
    spaces, cut = [], []
    space_init = AssignmentSpace.__init__
    extract = cegis.extract_counterexample

    def recording_init(self, *args, **kwargs):
        space_init(self, *args, **kwargs)
        spaces.append(self)

    def recording_extract(*args):
        critical = extract(*args)
        cut.append(critical is None)
        return critical

    def run(fam, q):
        spaces.clear()
        out = cegis_solve(fam, q)
        return (out.kind, out.witness and out.witness.key(fam), out.value,
                [r.key(fam) for r in out.T or ()],
                [r.key(fam) for r in out.F or ()], out.stats.checks,
                out.stats.candidates, out.stats.iterations,
                [space.verdicts.tolist() for space in spaces])

    monkeypatch.setattr(AssignmentSpace, "__init__", recording_init)
    monkeypatch.setattr(cegis, "extract_counterexample", recording_extract)
    (bench, bench_spec), (pruning, pruning_spec) = \
        bench_family(), pruning_family()
    cases = [*random_queries(random.Random(59), 150),
             (bench, SynthesisQuery("partition", spec=bench_spec)),
             (bench, SynthesisQuery("feasible", spec=bench_spec)),
             (pruning, SynthesisQuery("partition", spec=pruning_spec)),
             (pruning, SynthesisQuery("max", goal=pruning_spec.goal))]
    for fam, q in cases:
        with_cut = run(fam, q)
        with monkeypatch.context() as m:
            m.setattr(AssignmentSpace, "would_prune", lambda self, scope: True)
            assert run(fam, q) == with_cut, q
    assert any(cut), "no bisection was cut short"


def test_member_is_solved_once_per_check(monkeypatch):
    # a conflict reuses the chain the member was checked on
    realised = []

    def counted(fam, r):
        realised.append(r)
        return realise(fam, r)

    monkeypatch.setattr(cegis, "realise", counted)
    monkeypatch.setattr(enumeration, "realise", counted)
    fam, spec = bench_family(8, 10, 5)
    cases = [(fam, SynthesisQuery("partition", spec=spec))] + [
        (fam, q) for fam, q in random_queries(random.Random(61), 80)
        if q.kind == "partition" and q.budget is None]
    for fam, q in cases:
        realised.clear()
        out = cegis_solve(fam, q)
        assert len(realised) == out.stats.checks > 0


def test_no_extraction_where_init_fixes_every_hole(monkeypatch):
    # the initial state reads both holes and every combination of their
    # options gives it another distribution, so a scope holds its candidate
    # alone and no conflict is extracted
    fam = Family(5, 0, (Hole("h", ("a", "b", "c")), Hole("g", ("x", "y"))), (
        ((0.5, HoleRef.single("h", {"a": 1, "b": 2, "c": 3})),
         (0.5, HoleRef.single("g", {"x": 1, "y": 4}))),
        *(((1.0, Fixed(s)),) for s in range(1, 5))))
    monkeypatch.setattr(cegis, "extract_counterexample", None)
    goal = frozenset([1])
    for q in (SynthesisQuery("partition", spec=Specification(goal, op, 0.4))
              for op in ("<=", ">=")):
        out = cegis_solve(fam, q)
        assert [r.key(fam) for r in out.T] == \
            [r.key(fam) for r in enum_solve(fam, q).T]
        assert all(record["pruned"] == 1 and "critical" not in record
                   for record in out.stats.trace)
    for kind in ("max", "min"):
        q = SynthesisQuery(kind, goal=goal)
        assert cegis_solve(fam, q).value == enum_solve(fam, q).value


# --- critical sets from one factorisation ----------------------------------

def reference_extract(mc, spec, tol=1e-6):
    """The critical-set search as it was before the factorisation: one
    reach_probability per state for the ranking, then one sub-MC check per
    prefix length until a prefix decides."""
    to_goal = reach_probability(mc, spec.goal)
    want = spec.op in (">=", ">")
    if compare(float(to_goal[mc.init]), spec.op, spec.threshold, tol) != want:
        raise EngineError("the candidate does not have the wanted verdict")
    scores = {}
    for s in sorted(mc.reachable()):
        if s == mc.init or s in spec.goal:
            continue
        from_init = float(reach_probability(mc, frozenset([s]))[mc.init])
        scores[s] = from_init * float(to_goal[s])
    order = sorted(scores, key=lambda s: (-scores[s], s))
    critical = {mc.init}
    for nxt in [None] + order:
        if nxt is not None:
            critical.add(nxt)
        if check(sub_mc(mc, critical), spec, tol)[0] == want:
            return frozenset(critical)
    raise EngineError("the full reachable set does not decide the property")


def chain(rows, init=0):
    return MarkovChain(len(rows), init,
                       tuple(Distribution.from_pairs(r) for r in rows))


def assert_first_passage(mc, abs_tol=1e-9):
    h = model.ChainMatrix(mc).first_passage()[0]
    reachable = mc.reachable()
    for s in range(mc.n_states):
        expect = reach_probability(mc, {s})[mc.init] if s in reachable else 0.0
        assert h[s] == pytest.approx(expect, abs=abs_tol), s


def test_first_passage_matches_reach_probability_random():
    rng = random.Random(41)
    for _ in range(250):
        assert_first_passage(random_chain(rng, max_states=30))


def test_first_passage_init_in_bottom_scc():
    # 0 <-> 1 is closed; 2 and 3 are unreachable
    mc = chain([[(1, 1.0)], [(0, 0.5), (1, 0.5)], [(3, 1.0)], [(2, 1.0)]])
    h = model.ChainMatrix(mc).first_passage()[0]
    assert h.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert_first_passage(mc)


def test_first_passage_bottom_scc_with_goal_and_non_goal_states():
    # from 0 the closed cycle 2 -> 3 -> 4 -> 2 is entered with probability
    # 3/7 and the sink 5 with 4/7; the goal 3 lies on the cycle
    rows = [[(1, 0.6), (5, 0.4)], [(0, 0.5), (2, 0.5)], [(3, 1.0)],
            [(4, 1.0)], [(2, 0.9), (3, 0.1)], [(5, 1.0)]]
    mc = chain(rows)
    h = model.ChainMatrix(mc).first_passage()[0]
    enter = 3 / 7
    assert h[2] == h[3] == h[4] == pytest.approx(enter, abs=1e-12)
    assert_first_passage(mc)
    for op, threshold in (("<=", 0.2), (">=", 0.3)):
        spec = Specification(frozenset([3]), op, threshold)
        assert extract_counterexample(mc, spec) == reference_extract(mc, spec)


def test_first_passage_with_exits_of_1e12():
    eps = 1e-12
    # 0 loops but for 1e-12 to 1 and 1e-12 to 2; 1 loops but for 1e-12 to 3
    rows = [[(0, 1 - 2 * eps), (1, eps), (2, eps)],
            [(1, 1 - eps), (3, eps)], [(2, 1.0)], [(3, 1.0)]]
    mc = chain(rows)
    h = model.ChainMatrix(mc).first_passage()[0]
    assert h[1] == pytest.approx(0.5, abs=1e-9)
    assert h[3] == pytest.approx(0.5, abs=1e-9)
    assert_first_passage(mc)
    spec = Specification(frozenset([3]), "<=", 0.25)
    assert extract_counterexample(mc, spec) == reference_extract(mc, spec)
    assert extract_counterexample(mc, spec) == frozenset([0, 1])


def random_extractions(rng, n_chains):
    """Per random chain, a violated upper bound and a satisfied lower bound
    on its value, both well clear of the comparison tolerance."""
    made = 0
    while made < n_chains:
        mc = random_chain(rng, max_states=rng.choice((6, 12, 30)))
        goal = random_goal(rng, mc.n_states)
        value = float(reach_probability(mc, goal)[mc.init])
        if value < 1e-3:
            continue
        made += 1
        yield mc, Specification(goal, "<=", value * rng.uniform(0.05, 0.95))
        yield mc, Specification(goal, ">=", value * rng.uniform(0.05, 0.95))


def test_extraction_matches_reference_random():
    rng = random.Random(43)
    for mc, spec in random_extractions(rng, 250):
        assert extract_counterexample(mc, spec) == \
            reference_extract(mc, spec), (mc.dump(), spec)


def test_extraction_bisects_within_the_check_bound(monkeypatch):
    # the bisection values prefixes on the candidate's arrays, at most
    # ceil(log2(m + 1)) + 1 of them, and certifies the chosen set with
    # exactly one sub-MC check
    valued, checked, built = [], [], []
    sub_value = model.ChainMatrix.sub_value

    def counted_value(self, critical, goal):
        valued.append(1)
        return sub_value(self, critical, goal)

    def counted_check(mc, spec, tol=model.COMPARISON_TOL):
        checked.append(1)
        return check(mc, spec, tol)

    def counted_sub_mc(mc, critical):
        built.append(1)
        return sub_mc(mc, critical)

    monkeypatch.setattr(model.ChainMatrix, "sub_value", counted_value)
    monkeypatch.setattr(cegis, "check", counted_check)
    monkeypatch.setattr(cegis, "sub_mc", counted_sub_mc)
    rng = random.Random(47)
    for mc, spec in random_extractions(rng, 200):
        for calls in (valued, checked, built):
            calls.clear()
        extract_counterexample(mc, spec)
        m = len(mc.reachable() - spec.goal - {mc.init})
        assert len(valued) <= math.ceil(math.log2(m + 1)) + 1, (m, len(valued))
        assert (len(checked), len(built)) == (1, 1)


def test_extraction_on_the_sparse_path(monkeypatch):
    # a walk longer than DENSE_SOLVE_LIMIT: each state steps right with
    # 0.899, back with 0.1 and into the sink with 0.001; the last is the goal
    n = model.DENSE_SOLVE_LIMIT + 30
    sink, goal = n, n - 1
    rows = [[(s + 1, 0.899), (max(s - 1, 0), 0.1), (sink, 0.001)]
            for s in range(n - 1)] + [[(goal, 1.0)], [(sink, 1.0)]]
    mc = chain(rows)
    value = float(reach_probability(mc, {goal})[0])
    specs = [Specification(frozenset([goal]), "<=", value * 0.6),
             Specification(frozenset([goal]), ">=", value * 0.6)]
    monkeypatch.setattr(model, "GREEN_BLOCK", 5 * n)  # several column blocks
    sparse = model.ChainMatrix(mc).first_passage()[0]
    assert_first_passage(mc)
    assert [extract_counterexample(mc, spec) for spec in specs] == \
        [reference_extract(mc, spec) for spec in specs]
    monkeypatch.setattr(model, "DENSE_SOLVE_LIMIT", n + 1)
    dense = model.ChainMatrix(mc).first_passage()[0]
    assert dense == pytest.approx(sparse, abs=1e-12)


# --- sub-MC values on the candidate's arrays ---------------------------------

def assert_sub_value(mc, critical, goal):
    spec = Specification(frozenset(goal), ">=", 0.5)
    value = model.ChainMatrix(mc).sub_value(critical, goal)
    assert value == check(sub_mc(mc, critical), spec)[1], \
        (mc.dump(), sorted(critical), sorted(goal))
    return value


def test_sub_value_equals_sub_mc_check_random():
    rng = random.Random(53)
    for _ in range(300):
        mc = random_chain(rng, max_states=rng.choice((6, 12, 30)))
        goal = random_goal(rng, mc.n_states)
        ranked = sorted(mc.reachable() - {mc.init})
        rng.shuffle(ranked)
        k = rng.randint(0, len(ranked))
        assert_sub_value(mc, [mc.init, *ranked[:k]], goal)
        assert_sub_value(mc, random_critical(rng, mc), goal)


def test_sub_value_init_in_goal():
    mc = chain([[(1, 0.5), (2, 0.5)], [(1, 1.0)], [(2, 1.0)]])
    assert assert_sub_value(mc, [0], {0, 2}) == 1.0
    assert assert_sub_value(mc, [0, 1, 2], {0}) == 1.0


def test_sub_value_closed_class_inside_the_critical_set():
    # 1 <-> 3 is a closed class that cannot reach the goal 4; 2 leads there
    mc = chain([[(1, 0.5), (2, 0.5)], [(3, 1.0)], [(4, 1.0)], [(1, 1.0)],
                [(4, 1.0)]])
    assert assert_sub_value(mc, [0, 1, 3], {4}) == 0.0
    assert assert_sub_value(mc, [0, 1, 2, 3], {4}) == 0.5
    assert assert_sub_value(mc, [0, 1, 3], {2}) == 0.5


def test_sub_value_with_exits_of_1e12():
    eps = 1e-12
    # 0 loops but for 1e-12 to 1 and 1e-12 to 2; 1 loops but for 1e-12 to 3
    mc = chain([[(0, 1 - 2 * eps), (1, eps), (2, eps)],
                [(1, 1 - eps), (3, eps)], [(2, 1.0)], [(3, 1.0)]])
    assert assert_sub_value(mc, [0], {1}) == pytest.approx(0.5, abs=1e-9)
    assert assert_sub_value(mc, [0], {3}) == 0.0
    assert assert_sub_value(mc, [0, 1], {3}) == pytest.approx(0.5, abs=1e-9)
    assert assert_sub_value(mc, [0, 1, 2], {2, 3}) == 1.0


def test_sub_value_on_the_sparse_path():
    # the walk of test_extraction_on_the_sparse_path: its prefixes of more
    # than DENSE_SOLVE_LIMIT states solve sparse
    n = model.DENSE_SOLVE_LIMIT + 30
    sink, goal = n, n - 1
    rows = [[(s + 1, 0.899), (max(s - 1, 0), 0.1), (sink, 0.001)]
            for s in range(n - 1)] + [[(goal, 1.0)], [(sink, 1.0)]]
    mc = chain(rows)
    for k in (1, model.DENSE_SOLVE_LIMIT, n - 1, n, n + 1):
        assert_sub_value(mc, range(k), {goal})
    assert assert_sub_value(mc, range(n + 1), {goal}) > 0.0


def test_undecided_full_set_is_engine_error(monkeypatch, example_family):
    spec = Specification(GOAL2, "<=", 0.4)
    mc = realise(example_family, Realisation(R1))
    monkeypatch.setattr(model.ChainMatrix, "sub_value",
                        lambda self, critical, goal: 0.0)
    with pytest.raises(EngineError, match="full reachable set does not "
                                          "decide"):
        extract_counterexample(mc, spec)


def test_failed_certificate_is_engine_error(monkeypatch, example_family):
    spec = Specification(GOAL2, "<=", 0.4)
    mc = realise(example_family, Realisation(R1))
    monkeypatch.setattr(cegis, "check", lambda mc, spec, tol: (True, 0.0))
    with pytest.raises(EngineError, match="sub-MC check of the critical set "
                                          "does not decide"):
        extract_counterexample(mc, spec)


def test_unclassified_member_is_engine_error(monkeypatch, example_family):
    # a synthesiser that proposes nothing leaves every member unclassified
    monkeypatch.setattr(AssignmentSpace, "next_candidate", lambda self: None)
    q = SynthesisQuery("partition", spec=Specification(GOAL2, "<=", 0.4))
    with pytest.raises(EngineError, match="unclassified"):
        cegis_solve(example_family, q)


def test_disagreeing_sub_mc_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cegis, "check", lambda mc, spec, tol: (False, 0.0))
    code = main(["synth", "partition", "--input", toy_path(),
                 "--spec", "P>=0.1 [F s=4]", "--engine", "cegis"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: ") and "does not decide" in err
