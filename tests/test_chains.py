"""Members that induce one chain share one valuation: interned rows, option
classes, the chain key, and the Evaluator's memo keyed by it."""

import itertools
import os
import random

import pytest

from chainsynth import ENGINES, sketch
from chainsynth.constraints import Atom, Not
from chainsynth.engines.base import Stats, SynthesisQuery
from chainsynth.engines.enumeration import Evaluator
from chainsynth.family import (Family, FamilyError, Fixed, Hole, HoleRef,
                               Realisation, enumerate_realisations, realise)
from chainsynth.model import reach_probability
from chainsynth.randfam import (bench_family, pruning_family, random_family,
                                random_goal)

from conftest import SKETCHES
from test_differential import _queries, multi_hole_family


def repeating_family(rng):
    """Up to 36 members over up to three holes.  Each state reads at most
    one hole, and successor tables point into a pool of two or three
    states, so that many options are interchangeable."""
    n = rng.randint(4, 14)
    pool = rng.sample(range(n), rng.randint(2, 3))
    holes = tuple(Hole("r%d" % i, tuple("o%d" % j for j in range(k)))
                  for i, k in enumerate(rng.choices((2, 3, 4),
                                                    k=rng.randint(1, 3))))
    rows = []
    for s in range(n):
        h = rng.choice(holes) if rng.random() < 0.6 else None
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        row = []
        for w in weights:
            if h is not None and rng.random() < 0.7:
                tgt = HoleRef.single(h.name, {o: rng.choice(pool)
                                              for o in h.options})
            else:
                tgt = Fixed(rng.randrange(n))
            row.append((w / sum(weights), tgt))
        rows.append(tuple(row))
    return Family(n, 0, holes, tuple(rows), cost_model="optionsum")


def _exact_cases():
    """Families whose states read one hole at most, with a goal: there a
    chain key tells members apart exactly when their chains differ."""
    for args in ((8, 10, 5), (6, 4, 3), (3, 2, 2)):
        fam, spec = bench_family(*args)
        yield fam, spec.goal
    for n in (2, 16, 33):
        fam, spec = pruning_family(n)
        yield fam, spec.goal
    rng = random.Random(2323)
    for _ in range(40):
        fam = repeating_family(rng)
        yield fam, random_goal(rng, fam.n_states)


def _multi_hole_cases():
    rng = random.Random(777)
    for _ in range(30):
        fam = multi_hole_family(rng)
        yield fam, random_goal(rng, fam.n_states)
    for _ in range(30):
        fam = random_family(rng, max_states=16, max_realisations=64)
        yield fam, random_goal(rng, fam.n_states)


def _valued(fam, goal):
    """(member, value) by the Evaluator in lexicographic order, its Stats,
    and per member the chain `realise` builds."""
    stats = Stats()
    members = Evaluator(fam, SynthesisQuery("max", goal=goal), stats)
    valued = [(r, members.value(r)) for r in enumerate_realisations(fam)]
    chains = [realise(fam, r) for r, _ in valued]
    return valued, stats, chains


def _same_values(fam, goal, valued, chains):
    for (r, value), mc in zip(valued, chains):
        assert value == float(reach_probability(mc, goal)[mc.init]), \
            r.as_dict()


def test_one_check_per_distinct_chain():
    shared = 0
    for fam, goal in _exact_cases():
        valued, stats, chains = _valued(fam, goal)
        _same_values(fam, goal, valued, chains)
        distinct = len({mc.transitions for mc in chains})
        assert stats.checks == distinct
        shared += len(chains) - distinct
    assert shared > 0


def test_equal_chain_keys_mean_equal_chains():
    # where one state reads two holes, two members can induce one chain
    # under different keys; each key is still solved once
    for fam, goal in _multi_hole_cases():
        valued, stats, chains = _valued(fam, goal)
        _same_values(fam, goal, valued, chains)
        by_key = {}
        for (r, _), mc in zip(valued, chains):
            key = fam.chain_key(r.assignment)
            assert by_key.setdefault(key, mc.transitions) == mc.transitions
        assert stats.checks == len(by_key)
        assert stats.checks >= len({mc.transitions for mc in chains})


def _outcome(fam, out):
    keys = lambda rs: [r.key(fam) for r in rs or ()]
    return (out.kind, out.value, out.witness and out.witness.key(fam),
            out.cost, keys(out.T), keys(out.F), out.stats.candidates,
            out.stats.iterations)


def test_engines_answer_as_with_a_member_keyed_memo(monkeypatch):
    # keyed by member, the memo solves every member's chain; each engine
    # must answer the same, with the same counts, and solve no fewer chains
    rng = random.Random(99)
    cases = []
    for fam, goal in itertools.chain(_exact_cases(), _multi_hole_cases()):
        if fam.size() <= 64:
            cases += [(fam, q) for q in _queries(rng, fam)]
    for spec_of in (bench_family, pruning_family):
        fam, spec = spec_of()
        cases += [(fam, SynthesisQuery(k, spec=spec))
                  for k in ("feasible", "partition")]
    answers = [(name, [solve(fam, q) for fam, q in cases])
               for name, solve in ENGINES.items()]
    fewer = 0
    with monkeypatch.context() as m:
        m.setattr(Family, "chain_key", property(lambda fam: fam.key_of))
        for name, outs in answers:
            for (fam, q), out in zip(cases, outs):
                ref = ENGINES[name](fam, q)
                assert _outcome(fam, out) == _outcome(fam, ref), (name, q)
                assert out.stats.checks <= ref.stats.checks
                fewer += out.stats.checks < ref.stats.checks
    assert fewer > 0


def _families():
    yield from (fam for fam, _ in _exact_cases())
    yield from (fam for fam, _ in _multi_hole_cases())
    for name in ("power.sk", "sensors.sk", "toy.sk"):
        with open(os.path.join(SKETCHES, name)) as f:
            yield sketch.elaborate(sketch.parse(f.read()))


def test_equal_distributions_of_a_state_are_one_object():
    merged = 0
    for fam in _families():
        for row in fam.rows:
            dists = list(row.dists.values())
            for a, b in itertools.combinations(dists, 2):
                assert (a == b) == (a is b)
                merged += a is b
    assert merged > 0


def test_option_classes_match_pairwise_comparison():
    for fam in _families():
        options = {h.name: h.options for h in fam.holes}
        for row in fam.rows:
            classes = row.classes or [{o: {o} for o in options[h]}
                                      for h in row.holes]
            assert len(classes) == len(row.holes)
            for pos, (h, table) in enumerate(zip(row.holes, classes)):
                for o, p in itertools.product(options[h], repeat=2):
                    same = all(
                        dist == row.dists[combo[:pos] + (p,) + combo[pos + 1:]]
                        for combo, dist in row.dists.items()
                        if combo[pos] == o)
                    assert (p in table[o]) == same, (h, o, p)


def test_evaluator_refuses_a_non_member_on_a_hit_and_a_miss():
    # c0 and c1 route alike, so c0 hits the chain of c1 once it is solved
    fam, spec = pruning_family(4)
    fam = Family(fam.n_states, fam.init, fam.holes, fam.transitions,
                 constraints=(Not(Atom("route", "c0")),),
                 cost_model=fam.cost_model)
    assert fam.chain_key({"route": "c0"}) == fam.chain_key({"route": "c1"})
    q = SynthesisQuery("partition", spec=spec)
    invalid = [{"route": "c0"}, {"route": "c9"}, {},
               {"route": "c1", "other": "x"}]
    for primed in (False, True):
        stats = Stats()
        members = Evaluator(fam, q, stats)
        if primed:
            assert members.value(Realisation({"route": "c1"})) == 1.0
        for a in invalid:
            for method in (members.value, members.solve):
                with pytest.raises(FamilyError):
                    method(Realisation(a))
        assert stats.checks == int(primed)
