import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainsynth import ENGINES, model
from chainsynth.engines.base import SynthesisQuery
from chainsynth.family import Realisation, quotient_mdp, realise
from chainsynth.model import (COMPARISON_TOL, Distribution, MarkovChain, Mdp,
                              MdpView, MemorylessScheduler, ModelError,
                              Specification, check, choice_matrix, compare,
                              induced_chain, mdp_extremal, prob01_states,
                              reach_probability, sub_mc)
from chainsynth.randfam import random_chain, random_critical, random_goal

from conftest import (R1, R2, R3, R4, ROOT, SKETCHES, singular_cycle_family,
                      tiny_exit_family)


def chain_of(fam, assignment):
    return realise(fam, Realisation(assignment))


# --- distributions ----------------------------------------------------------

def test_distribution_validates():
    with pytest.raises(ModelError):
        Distribution(((0, 0.5), (1, 0.6)))
    with pytest.raises(ModelError):
        Distribution(((0, -0.1), (1, 1.1)))
    with pytest.raises(ModelError):
        Distribution(((0, 0.0), (1, 1.0)))


@pytest.mark.parametrize("entries, message", [
    (((0.5, 1.0),), "state 0.5 in distribution is not an integer"),
    (((True, 1.0),), "state True in distribution is not an integer"),
    ((("0", 1.0),), "state '0' in distribution is not an integer"),
    (((0, True),), "probability True out of (0, 1]"),
    (((0, np.True_),), "probability %r out of (0, 1]" % (np.True_,)),
    (((0, 0.5), (0, 0.5)), "duplicate state 0 in distribution"),
    ((), "distribution sums to 0.0, not 1"),
])
def test_distribution_refuses_malformed_entries(entries, message):
    with pytest.raises(ModelError) as exc:
        Distribution(entries)
    assert str(exc.value) == message


def test_distribution_stores_states_and_probabilities():
    d = Distribution(((3, 0.25), (np.int64(1), 0.75)))  # numpy states too
    assert (d.states, d.probs, d.lo, d.hi) == ((3, 1), (0.25, 0.75), 1, 3)
    assert d.entries == ((3, 0.25), (1, 0.75)) and d.support() == [3, 1]
    assert d == Distribution(d.entries) and hash(d) == hash(Distribution(
        d.entries))
    assert MarkovChain(4, 0, (d, D0, D0, D0)).preds == [[1, 2, 3], [0], [],
                                                        [0]]


def test_distribution_merges_duplicate_targets():
    d = Distribution.from_pairs([(3, 0.25), (3, 0.25), (1, 0.5)])
    assert dict(d.entries) == {3: 0.5, 1: 0.5}


def test_dirac():
    d = Distribution.dirac(2)
    assert d.entries == ((2, 1.0),)


def test_chain_reachable_and_dump():
    mc = MarkovChain(3, 0, (Distribution.dirac(1), Distribution.dirac(1),
                            Distribution.dirac(2)))
    assert mc.reachable() == {0, 1}
    assert "state 0" in mc.dump()


D0, D1 = Distribution.dirac(0), Distribution.dirac(1)


@pytest.mark.parametrize("build, message", [
    (lambda: MarkovChain(2, 0, (D0,)), "expected 2 distributions, got 1"),
    (lambda: MarkovChain(1, 1, (D0,)), "initial state 1 out of range"),
    (lambda: MarkovChain(1, -1, (D0,)), "initial state -1 out of range"),
    (lambda: MarkovChain(2, 0, (D0, Distribution.dirac(2))),
     "state 1 has successor 2 outside S"),
    (lambda: MarkovChain(1, 0, (Distribution.dirac(-1),)),
     "state 0 has successor -1 outside S"),
    (lambda: Mdp(2, 0, ((("a", D0),),)), "expected 2 action lists, got 1"),
    (lambda: Mdp(1, 3, ((("a", D0),),)), "initial state 3 out of range"),
    (lambda: Mdp(2, 0, ((("a", D0),), ())), "state 1 has no actions"),
    (lambda: Mdp(1, 0, ((("a", D0), ("a", D0)),)),
     "state 0 has duplicate action labels"),
    (lambda: Mdp(2, 0, ((("a", D0),),
                        (("a", D0), ("b", Distribution.dirac(5))))),
     "state 1 has successor 5 outside S"),
    (lambda: Mdp(1, 0, ((("a", Distribution.dirac(-1)),),)),
     "state 0 has successor -1 outside S"),
    # checked state by state, labels before successors
    (lambda: Mdp(2, 0, ((("a", Distribution.dirac(2)), ("a", D0)),
                        (("a", D0), ("a", D1)))),
     "state 0 has duplicate action labels"),
    (lambda: Mdp(2, 0, ((("a", Distribution.dirac(2)),),
                        (("a", D0), ("a", D1)))),
     "state 0 has successor 2 outside S"),
])
def test_model_constructors_refuse(build, message):
    with pytest.raises(ModelError) as exc:
        build()
    assert str(exc.value) == message


def test_compiled_models_compare_by_their_fields():
    def chain():
        return MarkovChain(2, 0, (Distribution(((0, 0.5), (1, 0.5))),
                                  Distribution.dirac(1)))

    a, b = chain(), chain()
    assert a == b and hash(a) == hash(b) and a.preds == [[0], [0, 1]]
    assert model.ChainMatrix(a).preds is a.preds
    assert repr(a) == ("MarkovChain(n_states=2, init=0, transitions=(%r, %r))"
                       % a.transitions)
    mdp = Mdp(2, 0, ((("a", D0), ("b", D1)), (("c", D1),)))
    assert mdp == Mdp(2, 0, ((("a", D0), ("b", D1)), (("c", D1),)))
    assert hash(mdp) == hash(Mdp(2, 0, mdp.actions))
    assert repr(mdp) == "Mdp(n_states=2, init=0, actions=%r)" % (mdp.actions,)


# --- comparisons ------------------------------------------------------------

def test_compare_tolerance_band():
    t = COMPARISON_TOL
    assert compare(0.1 - t / 2, ">=", 0.1)
    assert not compare(0.1 - 2 * t, ">=", 0.1)
    assert not compare(0.1 + t / 2, ">", 0.1)
    assert compare(0.1 + 2 * t, ">", 0.1)
    assert compare(0.1 + t / 2, "<=", 0.1)
    assert not compare(0.1 - t / 2, "<", 0.1)
    with pytest.raises(ModelError):
        compare(0.5, "==", 0.5)


def test_specification_validation():
    with pytest.raises(ModelError):
        Specification(frozenset([0]), ">=", 1.5)
    with pytest.raises(ModelError):
        Specification(frozenset([0]), "~", 0.5)
    with pytest.raises(ModelError):
        Specification(frozenset(), ">=", 0.5)


def test_decided_chain_values_are_a_fresh_vector():
    """A chain whose qualitative pass decides every state solves no linear
    system; its value vector is still a new float64 array, 1 exactly on
    the prob-1 states."""
    rng = random.Random(5)
    decided = 0
    for _ in range(200):
        mc = random_chain(rng, max_states=8)
        goal = random_goal(rng, mc.n_states)
        prob0, prob1 = prob01_states(mc, goal)
        if len(prob0) + len(prob1) < mc.n_states:
            continue
        decided += 1
        x, y = reach_probability(mc, goal), reach_probability(mc, goal)
        assert x.dtype == np.float64 and x.shape == (mc.n_states,)
        assert set(np.flatnonzero(x == 1.0)) == prob1
        assert set(np.flatnonzero(x == 0.0)) == prob0
        x[:] = 0.5
        assert not np.shares_memory(x, y) and set(np.flatnonzero(y)) == prob1
    assert decided > 20


# --- reachability on the running example ------------------------------------

def test_prob01_unreachable_goal_exact(example_family):
    # with k3 = 2, state 4 is unreachable: the probability is exactly 0
    mc = chain_of(example_family, R1)
    prob0, _ = prob01_states(mc, frozenset([4]))
    assert 0 in prob0
    assert reach_probability(mc, [4])[0] == 0.0


def test_prob1_exact(example_family):
    mc = chain_of(example_family, R2)
    _, prob1 = prob01_states(mc, frozenset([4]))
    assert 0 in prob1
    assert reach_probability(mc, [4])[0] == 1.0


def test_reach_values(example_family):
    # hand-derived: with k3 = 4 the goal {4} is reached almost surely,
    # with k3 = 2 it is unreachable; goal {2} is hit almost surely unless
    # both holes route away from state 2 (k2 = 3, k3 = 4)
    for assignment, goal, expect in (
            (R1, [4], 0.0), (R2, [4], 1.0), (R3, [4], 0.0), (R4, [4], 1.0),
            (R1, [2], 1.0), (R2, [2], 1.0), (R3, [2], 1.0), (R4, [2], 0.0)):
        mc = chain_of(example_family, assignment)
        assert reach_probability(mc, goal)[0] == pytest.approx(expect, abs=1e-9)


def test_check(example_family):
    spec = Specification(frozenset([4]), ">=", 0.1)
    assert check(chain_of(example_family, R2), spec) == (True, 1.0)
    sat, value = check(chain_of(example_family, R1), spec)
    assert not sat and value == 0.0


def test_linear_vs_vi_agreement(example_family):
    rng = random.Random(42)
    chains = [chain_of(example_family, a) for a in (R1, R2, R3, R4)]
    goals = [frozenset([4])] * 4
    for _ in range(50):
        mc = random_chain(rng, max_states=30)
        chains.append(mc)
        goals.append(random_goal(rng, mc.n_states))
    for mc, goal in zip(chains, goals):
        lin = reach_probability(mc, goal, method="linear")
        vi = reach_probability(mc, goal, method="vi")
        assert np.max(np.abs(lin - vi)) < 1e-6


def test_reach_rejects_bad_goal():
    mc = MarkovChain(2, 0, (Distribution.dirac(1), Distribution.dirac(1)))
    with pytest.raises(ModelError):
        reach_probability(mc, [5])


@pytest.mark.parametrize("mc", [
    # every state is qualitative, so nothing is solved
    MarkovChain(2, 0, (Distribution.dirac(1), Distribution.dirac(1))),
    # state 0 reaches the goal 1 with probability 0.5
    MarkovChain(3, 0, (Distribution(((1, 0.5), (2, 0.5))),
                       Distribution.dirac(1), Distribution.dirac(2)))])
def test_reach_rejects_unknown_method(mc):
    with pytest.raises(ModelError, match="unknown method"):
        reach_probability(mc, [1], method="bogus")


# --- sub-MC -----------------------------------------------------------------

def test_sub_mc_value(example_family):
    # freezing everything but the initial state caps the probability at the
    # direct one-step mass into the goal
    mc = chain_of(example_family, R1)
    frag = sub_mc(mc, {0})
    assert reach_probability(frag, [2])[0] == pytest.approx(0.5, abs=1e-12)


def test_sub_mc_keeps_index_space(example_family):
    mc = chain_of(example_family, R1)
    frag = sub_mc(mc, {0})
    assert frag.n_states == mc.n_states
    assert frag.transitions[1].entries == ((1, 1.0),)


def test_sub_mc_reuses_one_absorbing_row_per_state(example_family):
    mc = chain_of(example_family, R1)
    first, again = sub_mc(mc, {0}), sub_mc(mc, {0, 1})
    assert first.transitions[2] is again.transitions[2] \
        is Distribution.dirac(2)
    assert again.transitions[1] is mc.transitions[1]
    # the rows are shared per state index, so a bool is still no state
    with pytest.raises(ModelError):
        Distribution.dirac(True)


def test_sub_mc_requires_init(example_family):
    with pytest.raises(ModelError):
        sub_mc(chain_of(example_family, R1), {1, 2})


def test_prob01_with_absorbing_outside_states_is_that_of_the_sub_mc():
    rng = random.Random(67)
    for _ in range(300):
        mc = random_chain(rng, max_states=rng.choice((6, 12, 30)))
        goal = random_goal(rng, mc.n_states)
        k = rng.randint(0, mc.n_states - 1)
        critical = {mc.init, *rng.sample(range(mc.n_states), k)}
        chain = model.ChainMatrix(mc)
        assert model._prob01(mc.n_states, chain.preds, goal, critical,
                             chain.succ) == \
            prob01_states(sub_mc(mc, critical), goal), (mc.dump(), critical)


def test_dense_system_equals_the_sparse_assembly():
    """The one-pass dense system of a chain's unknown states equals, entry
    for entry, the dense matrix built from `_system`'s triplets, on chains
    with self-loops, merged successors and entries out of state order."""
    rng = random.Random(2419)
    for _ in range(300):
        n = rng.randint(2, 30)
        rows = []
        for s in range(n):
            targets = rng.choices(range(n), k=rng.randint(1, 4))
            if rng.random() < 0.4:
                targets.append(s)
            weights = [rng.randint(1, 7) for _ in targets]
            pairs = [(t, w / sum(weights)) for t, w in zip(targets, weights)]
            dist = Distribution.from_pairs(pairs)
            entries = list(dist.entries)
            rng.shuffle(entries)
            rows.append(Distribution(entries))
        mc = MarkovChain(n, 0, tuple(rows))
        goal = random_goal(rng, n)
        prob0, prob1 = prob01_states(mc, goal)
        unknown = sorted(set(range(n)).difference(prob0, prob1))
        if not unknown:
            continue
        known = np.zeros(n)
        known[list(prob1)] = 1.0
        at = np.array(unknown)
        rows_, cols, vals, exits, b = model._system(
            *model._csr_rows([mc.transitions[s] for s in at]),
            np.arange(len(at)), at, known)
        want = np.zeros((len(at), len(at)))
        off = rows_ != cols
        want[rows_[off], cols[off]] = -vals[off]
        want[np.arange(len(at)), np.arange(len(at))] = exits
        A, got_b = model._dense_system(mc.transitions, unknown, prob1)
        assert (A == want).all() and (got_b == b).all(), mc.dump()
        assert (model._solve(A, got_b) ==
                model._linear_solve(rows_, cols, vals, exits, b)).all()


def test_sub_value_of_the_whole_chain_is_reach_probability():
    # with every state critical the sub-MC is the chain itself, and both
    # values come from one qualitative pass and one solve
    rng = random.Random(71)
    for _ in range(300):
        mc = random_chain(rng, max_states=rng.choice((6, 12, 30)))
        goal = random_goal(rng, mc.n_states)
        assert model.ChainMatrix(mc).sub_value(range(mc.n_states), goal) == \
            reach_probability(mc, goal)[mc.init], mc.dump()


def test_sub_mc_monotone_random():
    rng = random.Random(99)
    for _ in range(200):
        mc = random_chain(rng, max_states=20)
        goal = random_goal(rng, mc.n_states)
        critical = random_critical(rng, mc)
        full = reach_probability(mc, goal)
        frag = reach_probability(sub_mc(mc, critical), goal)
        assert (frag <= full + 1e-7).all()


# --- MDP analysis -----------------------------------------------------------

def test_quotient_extremal_bounds(example_family):
    mdp = quotient_mdp(example_family)
    vmax, _ = mdp_extremal(mdp, frozenset([4]), "max")
    vmin, _ = mdp_extremal(mdp, frozenset([4]), "min")
    assert vmax == pytest.approx(1.0, abs=1e-9)
    assert vmin == pytest.approx(0.0, abs=1e-9)


def test_max_scheduler_makes_progress():
    # a value-preserving self-loop must not be chosen by the max scheduler
    mdp = Mdp(2, 0, (
        (("stay", Distribution.dirac(0)), ("go", Distribution.dirac(1))),
        (("loop", Distribution.dirac(1)),),
    ))
    value, sched = mdp_extremal(mdp, frozenset([1]), "max")
    assert value == pytest.approx(1.0)
    induced = induced_chain(mdp, sched)
    assert reach_probability(induced, [1])[0] == pytest.approx(1.0)


def test_schedulers_attain_extremal_values():
    rng = random.Random(5)
    for _ in range(30):
        base = random_chain(rng, max_states=12)
        # add a second random action to every state
        actions = []
        for s in range(base.n_states):
            extra = random_chain(rng, max_states=base.n_states)
            d = extra.transitions[rng.randrange(extra.n_states)]
            entries = tuple((t % base.n_states, p) for t, p in d.entries)
            actions.append((("a", base.transitions[s]),
                            ("b", Distribution.from_pairs(entries))))
        mdp = Mdp(base.n_states, 0, tuple(actions))
        goal = random_goal(rng, base.n_states)
        optima = brute_force(mdp, goal)
        for mode in ("max", "min"):
            value, sched = mdp_extremal(mdp, goal, mode)
            assert value == pytest.approx(optima[mode][0], abs=1e-7)
            attained = reach_probability(induced_chain(mdp, sched), goal)
            assert attained == pytest.approx(optima[mode], abs=1e-7)


def test_mdp_compiles_its_choice_matrix_once(monkeypatch, example_family):
    fam = dataclasses.replace(example_family)  # a copy not compiled yet
    calls = []
    csr_rows = model._csr_rows
    monkeypatch.setattr(model, "_csr_rows",
                        lambda dists: calls.append(dists) or csr_rows(dists))
    mdp = quotient_mdp(fam)
    assert len(calls) == 1
    assert mdp_extremal(mdp, {4}, "min")[0] == pytest.approx(0.0)
    assert mdp_extremal(mdp, {4}, "max")[0] == pytest.approx(1.0)
    assert len(calls) == 1


def test_induced_chain_missing_choice():
    mdp = Mdp(2, 0, (
        (("go", Distribution.dirac(1)),),
        (("loop", Distribution.dirac(1)),),
    ))
    with pytest.raises(ModelError):
        induced_chain(mdp, MemorylessScheduler({0: "go"}))


def test_induced_chain_needs_choices_only_where_it_reaches():
    # 0 moves to 1 or 3, which loop; 2 is unreachable
    mdp = Mdp(4, 0, (
        (("go", Distribution(((1, 0.5), (3, 0.5)))),),
        (("loop", Distribution.dirac(1)),),
        (("loop", Distribution.dirac(2)), ("back", Distribution.dirac(0))),
        (("loop", Distribution.dirac(3)),)))
    mc = induced_chain(mdp, MemorylessScheduler({0: "go", 1: "loop",
                                                 3: "loop"}))
    assert mc.transitions[2] == Distribution.dirac(2)  # its first action
    with pytest.raises(ModelError, match="reachable state 1$"):
        induced_chain(mdp, MemorylessScheduler({0: "go"}))


# --- extreme probabilities ----------------------------------------------------

def test_tiny_exits_never_yield_a_wrong_value(monkeypatch):
    # the goal is reached with probability 0.5 through exits of 1e-12 each
    mc = realise(tiny_exit_family(), Realisation({"h": "a"}))
    for method in ("auto", "linear"):
        value = reach_probability(mc, [1], method=method)[0]
        assert value == pytest.approx(0.5, abs=1e-9)
    # interval iteration cannot close the gap in a few sweeps and must say so
    monkeypatch.setattr(model, "VI_MAX_SWEEPS", 1000)
    with pytest.raises(ModelError):
        reach_probability(mc, [1], method="vi")


def test_mdp_extremal_exact_with_tiny_exits():
    mdp = quotient_mdp(tiny_exit_family())
    for mode in ("min", "max"):
        value, sched = mdp_extremal(mdp, frozenset([1]), mode)
        assert value == pytest.approx(0.5, abs=1e-9)
        attained = reach_probability(induced_chain(mdp, sched), [1])[mdp.init]
        assert attained == pytest.approx(0.5, abs=1e-9)


LOOP = Distribution(((0, 1.0 - 1e-12), (2, 1e-12)))
LEAVE = Distribution(((1, 0.999999), (2, 1e-6)))
STAY1, STAY2 = Distribution.dirac(1), Distribution.dirac(2)
STAY3 = Distribution.dirac(3)
# state 1 returns to state 0 except for exits of 2**-40 (about 1e-12) each
# to the goal 2 and the sink 3; 1 - 2 * 2**-40 is exact in floating point
CYCLE = Distribution(((0, 1.0 - 2 * 2.0 ** -40), (2, 2.0 ** -40),
                      (3, 2.0 ** -40)))


def stop_or_cycle(stop_goal):
    stop = Distribution(((2, stop_goal), (3, 1.0 - stop_goal)))
    return ((("stop", stop), ("cycle", STAY1)), (("back", CYCLE),),
            (("stay", STAY2),), (("stay", STAY3),))


# state 0 may loop with an exit of 1e-12: the loop's one-step value is
# within 1e-9 of the optimum, its value is not.  In the "-cycle" cases
# state 0 may enter a two-state cycle worth 0.5; its one-step value differs
# from stopping's by only about 4e-13
NEAR_TIES = {
    "max": (((("loop", LOOP), ("leave", LEAVE)), (("stay", STAY1),),
              (("stay", STAY2),)), [1], 0.999999, "leave"),
    "max-sure": (((("loop", LOOP), ("leave", STAY1)), (("stay", STAY1),),
                   (("stay", STAY2),)), [1], 1.0, "leave"),
    "min": (((("loop", LOOP), ("leave", LEAVE)),
              (("stay", STAY1), ("go", Distribution(((1, 0.999), (2, 0.001))))),
              (("stay", STAY2),)), [2], 1e-6, "leave"),
    "max-cycle": (stop_or_cycle(0.3), [2], 0.5, "cycle"),
    "min-cycle": (stop_or_cycle(0.7), [2], 0.5, "cycle"),
}


@pytest.mark.parametrize("case", sorted(NEAR_TIES))
def test_witness_attains_value_despite_near_ties(case):
    actions, goal, expect, label = NEAR_TIES[case]
    mdp, mode = Mdp(len(actions), 0, actions), case[:3]
    value, sched = mdp_extremal(mdp, goal, mode)
    assert value == pytest.approx(expect, abs=1e-12)
    assert sched[0] == label
    attained = reach_probability(induced_chain(mdp, sched), goal)[0]
    assert attained == pytest.approx(value, abs=1e-12)


def test_rounding_gain_never_closes_a_cycle():
    # "wait" only cycles between states 0 and 3 and ties exactly with the
    # value of "go"; rounded, it looks like a gain.  Taking it would leave
    # no way out of {0, 3} and a singular system to solve
    mdp = Mdp(5, 0, (
        (("wait", Distribution(((0, 0.7), (3, 0.3)))),
         ("go", Distribution(((1, 0.625), (2, 0.25), (4, 0.125))))),
        (("stay", STAY1),), (("stay", STAY2),),
        (("back", Distribution.dirac(0)),),
        (("stay", Distribution.dirac(4)),
         ("back", Distribution(((0, 0.625), (2, 0.125), (1, 0.25)))))))
    value, sched = mdp_extremal(mdp, [1], "max")
    assert value == pytest.approx(42 / 59, abs=1e-12)
    assert (sched[0], sched[4]) == ("go", "back")


PROBS = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.3)


@st.composite
def small_mdps(draw):
    """MDPs with <= 6 states and <= 3 actions per state whose distributions
    put probabilities down to 1e-12 on all successors but the first."""
    n = draw(st.integers(2, 6))
    actions = []
    for _ in range(n):
        acts = []
        for label in range(draw(st.integers(1, 3))):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=3, unique=True))
            small = [draw(st.sampled_from(PROBS)) for _ in targets[1:]]
            probs = [1.0 - sum(small)] + small
            acts.append((label, Distribution(tuple(zip(targets, probs)))))
        actions.append(tuple(acts))
    goal = frozenset(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=2)))
    return Mdp(n, 0, tuple(actions)), goal


def brute_force(mdp, goal):
    """Per mode, the optimum over every memoryless deterministic scheduler
    from every state: an optimal memoryless scheduler is optimal from all
    states at once, so this is the elementwise max or min."""
    values = []
    for pick in itertools.product(*(range(len(a)) for a in mdp.actions)):
        chain = MarkovChain(mdp.n_states, mdp.init, tuple(
            acts[i][1] for acts, i in zip(mdp.actions, pick)))
        values.append(reach_probability(chain, goal))
    return {"max": np.max(values, axis=0), "min": np.min(values, axis=0)}


@settings(max_examples=300)
@given(small_mdps(), st.sampled_from(("min", "max")))
def test_mdp_extremal_matches_brute_force(case, mode):
    mdp, goal = case
    optimum = brute_force(mdp, goal)[mode]
    value, sched = mdp_extremal(mdp, goal, mode)
    assert value == pytest.approx(optimum[mdp.init], abs=1e-6)
    attained = reach_probability(induced_chain(mdp, sched), goal)
    assert attained == pytest.approx(optimum, abs=1e-6)



# Two MDPs whose exits of 1e-9 to 1e-12 leave policy iteration gains of
# rounding size.  A stop rule that switched a row only on a gain above
# 8 * eps * max(best, current), without _keep_proper's guard, looped
# forever on B and hit a singular solve on A.  Per state, each action is a
# list of (successor, probability) pairs.
ROUNDING_GAINS = {
    "A": ({4}, [
        [[(0, .7499999999990905), (4, 2 ** -40), (5, .25)], [(0, 1.)],
         [(0, .999999999), (5, 1e-9)]],
        [[(0, 1.)]],
        [[(2, 1.)], [(0, .9999999989990905), (5, 1e-9), (1, 2 ** -40)]],
        [[(5, .899999999999), (3, .1), (1, 1e-12)],
         [(1, .999999998), (3, 1e-9), (2, 1e-9)],
         [(5, .4), (4, .3), (0, .3)]],
        [[(2, .75), (0, .25)], [(3, 1.)],
         [(2, .999999998), (0, 1e-9), (4, 1e-9)]],
        [[(5, 1.)], [(5, 1.)]]]),
    "B": ({6}, [
        [[(0, 1.)]],
        [[(0, 1.)], [(5, 1.)], [(1, .7499999989999999), (4, .25), (2, 1e-9)]],
        [[(1, .6999999999990001), (5, .3), (6, 1e-12)]],
        [[(1, .999999999), (4, 1e-9)],
         [(5, .749999999999), (2, 1e-12), (0, .25)]],
        [[(0, .699999999), (5, 1e-9), (4, .3)]],
        [[(5, .8999999999990905), (1, .1), (4, 2 ** -40)],
         [(4, .749999999999), (0, .25), (5, 1e-12)],
         [(1, .699999999), (5, .3), (4, 1e-9)]],
        [[(4, .999999999), (5, 1e-9)], [(5, .9999999999990905), (2, 2 ** -40)],
         [(5, .7), (4, .3)]]]),
}


@pytest.mark.parametrize("name", sorted(ROUNDING_GAINS))
@pytest.mark.parametrize("mode", ["min", "max"])
def test_policy_iteration_attains_optimum_despite_rounding_gains(name, mode):
    goal, rows = ROUNDING_GAINS[name]
    mdp = Mdp(len(rows), 0, tuple(
        tuple((a, Distribution.from_pairs(pairs)) for a, pairs in
              enumerate(acts)) for acts in rows))
    optimum = brute_force(mdp, goal)[mode]
    value, sched = mdp_extremal(mdp, goal, mode)
    assert value == pytest.approx(optimum[0], rel=1e-9, abs=1e-20)
    attained = reach_probability(induced_chain(mdp, sched), goal)
    assert attained == pytest.approx(optimum, rel=1e-9, abs=1e-20)

def test_sparse_solve_on_a_long_walk():
    # 700 unknowns take the sparse branch; a fair walk between the
    # absorbing ends 0 and n - 1 reaches n - 1 with probability i / (n - 1)
    n = 702
    walk = tuple(Distribution.dirac(i) if i in (0, n - 1) else
                 Distribution(((i - 1, 0.5), (i + 1, 0.5))) for i in range(n))
    expect = np.arange(n) / (n - 1)
    mc = MarkovChain(n, 1, walk)
    assert np.max(np.abs(reach_probability(mc, [n - 1]) - expect)) < 1e-9
    # a walk that leaks to the sink 0 from every state, with a second action
    # that loops: max never loops and attains the walk's value
    leaky = tuple(Distribution.dirac(i) if i in (0, n - 1) else
                  Distribution.from_pairs(((i - 1, 0.49), (i + 1, 0.49),
                                           (0, 0.02))) for i in range(n))
    walk_value = reach_probability(MarkovChain(n, n // 2, leaky), [n - 1])
    mdp = Mdp(n, n // 2, tuple(
        ((0, d),) if i in (0, n - 1) else ((0, Distribution.dirac(i)), (1, d))
        for i, d in enumerate(leaky)))
    value, sched = mdp_extremal(mdp, frozenset([n - 1]), "max")
    assert value == pytest.approx(walk_value[n // 2], abs=1e-9)
    assert all(sched[i] == 1 for i in range(1, n - 1))


# run in a fresh interpreter: the test process may hold scipy already
COLD_PATH = """
import json, sys
from chainsynth import ENGINES, SynthesisQuery, model, sketch
from chainsynth.cli import parse_spec

loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for name, goal, threshold in (("toy", "s=4", 0.1), ("sensors", "s=2", 0.5)):
    with open("%s/%s.sk" % (sys.argv[1], name)) as fh:
        fam = sketch.elaborate(sketch.parse(fh.read()))
    spec = parse_spec("P>=%s [F %s]" % (threshold, goal), fam)
    for solve in ENGINES.values():
        solve(fam, SynthesisQuery("partition", spec=spec))
        for kind in ("max", "min"):
            solve(fam, SynthesisQuery(kind, goal=spec.goal))
after_engines = loaded()
# the walk of test_extraction_on_the_sparse_path: n - 1 unknowns
n = model.DENSE_SOLVE_LIMIT + 30
sink, goal = n, n - 1
mc = model.MarkovChain(n + 1, 0, tuple(
    [model.Distribution.from_pairs([(s + 1, 0.899), (max(s - 1, 0), 0.1),
                                    (sink, 0.001)]) for s in range(n - 1)]
    + [model.Distribution.dirac(goal), model.Distribution.dirac(sink)]))
limit, model.DENSE_SOLVE_LIMIT = model.DENSE_SOLVE_LIMIT, n
dense = float(model.reach_probability(mc, {goal})[0])
after_dense = loaded()
model.DENSE_SOLVE_LIMIT = limit
sparse = float(model.reach_probability(mc, {goal})[0])
print(json.dumps([after_engines, after_dense, dense, sparse, loaded()]))
"""


def test_scipy_loads_only_for_a_sparse_solve():
    # every engine and query kind on the example sketches, and a dense
    # solve of more than DENSE_SOLVE_LIMIT unknowns, leave scipy unloaded;
    # the first sparse solve loads it and agrees with the dense one
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH, SKETCHES],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_engines, after_dense, dense, sparse, after_sparse = json.loads(
        proc.stdout)
    assert after_engines == [] and after_dense == []
    assert 0.0 < dense < 1.0
    assert sparse == pytest.approx(dense, rel=1e-9)
    assert "scipy.sparse.linalg" in after_sparse


def test_max_on_a_long_walk_with_a_down_step():
    # gambler's ruin between the absorbing ends 0 and n - 1: the fair step
    # reaches n - 1 from i with probability i / (n - 1), "down" never does.
    # Prob1E drops one state per round here, so each round must be cheap
    n = 702
    mdp = Mdp(n, n // 2, tuple(
        (("stay", Distribution.dirac(i)),) if i in (0, n - 1) else
        (("fair", Distribution(((i - 1, 0.5), (i + 1, 0.5)))),
         ("down", Distribution.dirac(i - 1))) for i in range(n)))
    value, sched = mdp_extremal(mdp, [n - 1], "max")
    assert value == pytest.approx(351 / 701, abs=1e-9)
    assert all(sched[i] == "fair" for i in range(1, n - 1))
    value, sched = mdp_extremal(mdp, [n - 1], "min")
    assert value == 0.0
    assert sched[n - 2] == "down"  # the one state whose fair step can win


# --- MDP graph fixpoints against the layered reference ----------------------
# The whole-matrix numpy rounds that computed the prob-0/prob-1 sets before
# the worklist searches: one round adds every state with a row into the set.
# Each reads only the rows the MDP keeps (`cm.rows`).


def _some_succ(cm, mask):
    return np.logical_or.reduceat(mask[cm.indices], cm.indptr[:-1])


def _all_succ(cm, mask):
    return np.logical_and.reduceat(mask[cm.indices], cm.indptr[:-1])


def _some_row(cm, rows):
    return np.logical_or.reduceat(rows, cm.first[:-1])


def _first_row(cm, rows):
    return np.minimum.reduceat(
        np.where(rows, np.arange(len(rows)), len(rows)), cm.first[:-1])


def layered_attract(cm, seeds, rows_ok, policy=None):
    reached = seeds.copy()
    while True:
        hit = cm.rows & rows_ok & _some_succ(cm, reached)
        new = _some_row(cm, hit) & ~reached
        if not new.any():
            return reached
        if policy is not None:
            policy[new] = _first_row(cm, hit)[new]
        reached |= new


def layered_prob1e(cm, goal, stay):
    while True:
        nxt = layered_attract(cm, goal, _all_succ(cm, stay))
        if np.array_equal(nxt, stay):
            return stay
        stay = nxt


def layered_prob0e(cm, goal):
    avoid = ~goal
    while True:
        nxt = avoid & _some_row(cm, cm.rows & _all_succ(cm, avoid))
        if np.array_equal(nxt, avoid):
            return avoid
        avoid = nxt


def random_mdp(rng):
    """1-12 states, 1-3 rows each; a row may loop on its state, and its
    successors after the first take 1e-12 or a random share."""
    n = rng.randint(1, 12)
    actions = []
    for s in range(n):
        acts = []
        for label in range(rng.randint(1, 3)):
            targets = rng.sample(range(n), rng.randint(1, min(3, n)))
            if rng.random() < 0.3 and s not in targets:
                targets[0] = s
            small = [rng.choice((1e-12, 0.1, 0.25)) for _ in targets[1:]]
            acts.append((label, Distribution(tuple(zip(
                targets, [1.0 - sum(small)] + small)))))
        actions.append(tuple(acts))
    return Mdp(n, 0, tuple(actions))


def random_view(rng):
    """A view of a `random_mdp`'s choice matrix keeping a random half of
    its rows, and one row of each state at least."""
    mdp = random_mdp(rng)
    rows = np.array([rng.random() < 0.5 for _ in mdp.labels])
    first = mdp.first.tolist()
    rows[[rng.randrange(a, b) for a, b in zip(first, first[1:])]] = True
    return MdpView(mdp.n_states, 0, choice_matrix(mdp.tables), rows)


def test_graph_fixpoints_equal_the_layered_reference():
    _fixpoints_equal_the_layered_reference(random_mdp, random.Random(2024))


def test_graph_fixpoints_of_views_equal_the_layered_reference():
    """The same on views that mask rows, which the searches must skip."""
    _fixpoints_equal_the_layered_reference(random_view, random.Random(2517))


def _fixpoints_equal_the_layered_reference(build, rng):
    for _ in range(250):
        mdp = build(rng)
        n, n_rows = mdp.n_states, len(mdp.labels)
        goal = np.array([rng.random() < 0.3 for _ in range(n)])
        rows_ok = np.array([rng.random() < 0.7 for _ in range(n_rows)])
        for ok in (True, rows_ok):
            got, want = mdp.first[:-1].copy(), mdp.first[:-1].copy()
            reached = model._attract(mdp, goal, ok, got)
            assert np.array_equal(reached,
                                  layered_attract(mdp, goal, ok, want))
            assert np.array_equal(got, want)
        reach = layered_attract(mdp, goal, True)
        got, want = mdp.first[:-1].copy(), mdp.first[:-1].copy()
        prob1 = model._prob1e(mdp, goal, reach, got)
        assert np.array_equal(prob1, layered_prob1e(mdp, goal, reach))
        layered_attract(mdp, goal, _all_succ(mdp, prob1), want)
        assert np.array_equal(got[prob1], want[prob1])
        prob0, stays = model._prob0e(mdp, goal)
        assert np.array_equal(prob0, layered_prob0e(mdp, goal))
        assert np.array_equal(stays, mdp.rows & _all_succ(mdp, prob0))


def test_prob1e_drops_a_ladder_in_one_round(monkeypatch):
    """Each state's only row leads to the goal or to the next state, and
    the last one risks a sink: one cascade drops the whole ladder, where
    an attractor per round dropped one state."""
    k = 50
    goal, sink = k, k + 1
    mdp = Mdp(k + 2, 0, tuple(
        (("on", Distribution(((goal, 0.5), (s + 1 if s < k - 1 else sink,
                                            0.5)))),)
        for s in range(k)) + ((("stay", Distribution.dirac(goal)),),
                              (("stay", Distribution.dirac(sink)),)))
    is_goal = np.arange(k + 2) == goal
    reach = model._attract(mdp, is_goal, True)
    assert reach.sum() == k + 1
    calls = []
    attract = model._attract
    monkeypatch.setattr(model, "_attract",
                        lambda *args: calls.append(1) or attract(*args))
    prob1 = model._prob1e(mdp, is_goal, reach, mdp.first[:-1].copy())
    assert np.array_equal(prob1, is_goal)
    assert len(calls) <= 2


def test_policy_evaluation_equals_the_sparse_assembly():
    """A policy's values gathered from the dense block equal, bit for bit,
    those of the system `_system` assembles for it from the probabilities,
    or both solves fail."""
    rng = random.Random(2421)
    for _ in range(300):
        mdp = random_mdp(rng)
        n = mdp.n_states
        states = np.array(sorted(rng.sample(range(n), rng.randint(1, n))))
        known = np.array([float(s not in states and rng.random() < 0.5)
                          for s in range(n)])
        evaluate = model._evaluator(mdp, states, known)
        first = mdp.first.tolist()
        rows = np.array([rng.randrange(first[s], first[s + 1])
                         for s in states])
        # the sparse assembly from the probabilities, self-loops included
        indptr, indices, data = model._csr_rows(
            [dist for acts in mdp.actions for _, dist in acts])
        try:
            want = model._linear_solve(*model._system(
                indptr, indices, data, rows, states, known))
        except ModelError:
            with pytest.raises(ModelError):
                evaluate(rows)
            continue
        assert (evaluate(rows) == want.clip(0.0, 1.0)).all()
        # the sparse path, for blocks too large, reads `leave` the same way
        assert (model._linear_solve(*model._system(
            mdp.indptr, mdp.indices, mdp.leave, rows, states, known)) ==
            want).all()


@pytest.mark.parametrize("dense_limit", [model.DENSE_SOLVE_LIMIT, 0])
def test_singular_solve_is_model_error(monkeypatch, dense_limit):
    # both solve paths, dense and sparse, on the member whose cycle has
    # exits too small to register, without a solver warning
    monkeypatch.setattr(model, "DENSE_SOLVE_LIMIT", dense_limit)
    mc = chain_of(singular_cycle_family(), {"h": "a"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ModelError):
            reach_probability(mc, frozenset([3]))
    assert not caught, [str(w.message) for w in caught]


def test_engines_refuse_or_answer_a_singular_member():
    fam = singular_cycle_family()
    for name, solve in ENGINES.items():
        try:
            out = solve(fam, SynthesisQuery("max", goal=frozenset([3])))
        except ModelError:
            continue
        assert out.value == 1.0, name
