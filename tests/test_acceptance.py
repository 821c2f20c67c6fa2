"""End-to-end acceptance suite: one test (and one PASS/FAIL line) per
criterion.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chainsynth import ENGINES
from chainsynth.engines.base import SynthesisQuery
from chainsynth.engines.cegar import cegar_solve
from chainsynth.engines.cegis import cegis_solve
from chainsynth.family import Realisation, cost, enumerate_realisations, realise
from chainsynth.model import (Specification, check, prob01_states,
                              reach_probability, sub_mc)
from chainsynth.randfam import (bench_family, pruning_family, random_chain,
                                random_critical, random_family, random_goal)

from conftest import R1, R2, R3, R4, in_scope, interval_iteration

GOAL4 = frozenset([4])
GOAL2 = frozenset([2])


@contextmanager
def criterion(n, title):
    try:
        yield
    except BaseException:
        print("\n[criterion %02d] FAIL: %s" % (n, title))
        raise
    print("\n[criterion %02d] PASS: %s" % (n, title))


def test_criterion_01_running_example_partition(toy_family):
    with criterion(1, "all engines partition the running example identically"):
        spec = Specification(GOAL4, ">=", 0.1)
        q = SynthesisQuery("partition", spec=spec)
        for name, solve in ENGINES.items():
            start = time.perf_counter()
            out = solve(toy_family, q)
            elapsed = time.perf_counter() - start
            assert [r.assignment for r in out.T] == [R2, R4], name
            assert [r.assignment for r in out.F] == [R1, R3], name
            assert elapsed < 1.0, name


def test_criterion_02_max_synthesis(toy_family):
    with criterion(2, "max reachability over the family is 1.0 at r2/r4"):
        for name, solve in ENGINES.items():
            out = solve(toy_family, SynthesisQuery("max", goal=GOAL4))
            assert abs(out.value - 1.0) <= 1e-6, name
            assert out.witness.assignment in (R2, R4), name


def test_criterion_03_structural_costs(toy_family):
    with criterion(3, "structural costs are 8, 10, 11, 11"):
        costs = [cost(toy_family, Realisation(a)) for a in (R1, R2, R3, R4)]
        assert costs == [8, 10, 11, 11]


def test_criterion_04_budgeted_max(toy_family):
    with criterion(4, "budgeted max picks r2 at B=10, r1 at B=9, unsat at B=7"):
        for name, solve in ENGINES.items():
            q = lambda b: SynthesisQuery("max", goal=GOAL4, budget=b,
                                         cost_model="structural")
            out = solve(toy_family, q(10))
            assert (out.witness.assignment, out.cost) == (R2, 10), name
            assert abs(out.value - 1.0) <= 1e-6, name
            out = solve(toy_family, q(9))
            assert (out.witness.assignment, out.cost) == (R1, 8), name
            assert abs(out.value - 0.0) <= 1e-6, name
            assert solve(toy_family, q(7)).kind == "unsat", name


def test_criterion_05_cegis_conflict(toy_family):
    with criterion(5, "one conflict from critical set {0} prunes r2 unchecked"):
        spec = Specification(GOAL2, "<=", 0.4)
        out = cegis_solve(toy_family, SynthesisQuery("partition", spec=spec))
        first = out.stats.trace[0]
        assert first["candidate"] == R1  # candidate order forces r1 first
        assert first["critical"] == [0]
        checked = [rec["candidate"] for rec in out.stats.trace]
        assert R2 not in checked
        assert out.stats.checks < 4


def test_criterion_06_cegar_refinement(toy_family):
    with criterion(6, "quotient scheduler analysis drives >= 1 refinement"):
        out = ENGINES["cegar"](toy_family, SynthesisQuery("max", goal=GOAL4))
        quotient_recs = [rec for rec in out.stats.trace if "bound" in rec]
        assert quotient_recs, "no quotient verification happened"
        first = quotient_recs[0]
        if first["verdict"] == "inconsistent":
            assert first["inconsistent"] == {"k3": ["2", "4"]}
        else:
            assert first["verdict"] == "consistent"
            assert abs(out.value - 1.0) <= 1e-6
        assert any(rec.get("split") for rec in out.stats.trace)


def test_criterion_07_engine_agreement_suite():
    with criterion(7, "200 random families: identical partitions, equal max"):
        rng = random.Random(20240817)
        start = time.perf_counter()
        for i in range(200):
            fam = random_family(rng, max_states=rng.randint(4, 200),
                                max_realisations=1000)
            spec = Specification(random_goal(rng, fam.n_states),
                                 rng.choice(("<=", "<", ">=", ">")),
                                 round(rng.random(), 3))
            q = SynthesisQuery("partition", spec=spec)
            base = None
            for name, solve in ENGINES.items():
                keys = sorted(r.key(fam) for r in solve(fam, q).T)
                if base is None:
                    base = keys
                else:
                    assert keys == base, (i, name)
            values = [solve(fam, SynthesisQuery("max", goal=spec.goal)).value
                      for solve in ENGINES.values()]
            assert max(values) - min(values) <= 1e-6, i
        assert time.perf_counter() - start < 300.0


def test_criterion_08_submc_monotonicity_and_conflict_soundness():
    with criterion(8, "sub-MC values never exceed full values; learned "
                      "conflicts re-validated by direct checks"):
        rng = random.Random(4711)
        for _ in range(1000):
            mc = random_chain(rng, max_states=20)
            goal = random_goal(rng, mc.n_states)
            critical = random_critical(rng, mc)
            full = reach_probability(mc, goal)
            frag = reach_probability(sub_mc(mc, critical), goal)
            assert (frag <= full + 1e-7).all()
        # conflict clauses: every realisation a learned scope classifies
        # must agree with a direct model-checking run
        from chainsynth.engines.cegis import _option_scope
        revalidated = 0
        for _ in range(25):
            fam = random_family(rng, max_states=10, max_realisations=256,
                                allow_constraints=False)
            spec = Specification(random_goal(rng, fam.n_states), "<=",
                                 round(rng.uniform(0.05, 0.9), 3))
            out = cegis_solve(fam, SynthesisQuery("partition", spec=spec))
            for rec in out.stats.trace:
                if "critical" not in rec or rec["sat"]:
                    continue
                scope = _option_scope(fam, frozenset(rec["critical"]),
                                      Realisation(rec["candidate"]))
                for r in enumerate_realisations(fam):
                    if in_scope(scope, r):
                        sat, _ = check(realise(fam, r), spec)
                        assert not sat
                        revalidated += 1
        assert revalidated > 0


def test_criterion_09_bench_scale():
    with criterion(9, "CEGIS solves a 10^4-realisation family fast, with "
                      "checks < 20% of family size"):
        start = time.perf_counter()
        bench, spec = bench_family()
        out = cegis_solve(bench, SynthesisQuery("feasible", spec=spec))
        assert out.kind == "witness"
        assert bench.size() >= 10 ** 4
        assert out.stats.checks < 0.2 * bench.size()
        fam, spec = pruning_family()
        out = cegis_solve(fam, SynthesisQuery("feasible", spec=spec))
        assert out.kind == "witness"
        assert out.stats.checks < 64  # 64 options, 1 admissible
        assert time.perf_counter() - start < 60.0


def test_criterion_10_numerics(toy_family):
    with criterion(10, "linear solve and value iteration agree; qualitative "
                       "precomputation is exact"):
        rng = random.Random(3)
        chains = [realise(toy_family, Realisation(a))
                  for a in (R1, R2, R3, R4)]
        goals = [GOAL4] * 4
        for _ in range(100):
            mc = random_chain(rng, max_states=40)
            chains.append(mc)
            goals.append(random_goal(rng, mc.n_states))
        for mc, goal in zip(chains, goals):
            lin = reach_probability(mc, goal)
            vi = interval_iteration(mc, goal)
            assert np.max(np.abs(lin - vi)) < 1e-6
        # with k3 = 2, state 4 is unreachable for r1 and r3: exactly 0.0
        for assignment in (R1, R3):
            mc = realise(toy_family, Realisation(assignment))
            prob0, _ = prob01_states(mc, GOAL4)
            assert 0 in prob0
            assert reach_probability(mc, GOAL4)[0] == 0.0


def test_criterion_11_cegar_bench_scale():
    with criterion(11, "CEGAR classifies a 10^4-realisation family in "
                       "subfamilies, with fewer than 40 checks"):
        bench, spec = bench_family()
        out = cegar_solve(bench, SynthesisQuery("partition", spec=spec))
        assert len(out.T) == 175  # the admissible route, every mid and tail
        assert out.stats.checks < 40
        out = cegar_solve(bench, SynthesisQuery("feasible", spec=spec))
        assert out.kind == "witness"
        assert out.stats.checks < 40
        fam, spec = pruning_family(128)
        out = cegar_solve(fam, SynthesisQuery("partition", spec=spec))
        assert len(out.T) == 1
        assert out.stats.checks <= 32
