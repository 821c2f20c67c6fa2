"""Baseline enumeration engine: exact, deterministic, the oracle for the
other engines; its `Evaluator` values members for every engine."""

from __future__ import annotations

from ..family import (Family, Realisation, check_assignment, count_members,
                      enumerate_realisations, initial_subfamily, realise)
from ..model import compare, reach_probability
from ..model import check  # noqa: F401 -- perfbench's tracer wraps this name
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   beats, witness_outcome, within_budget)

ENUM_BOUND = 10 ** 6


class Evaluator:
    """The one place a member is valued: it realises the member and solves
    its chain for the query's goal.  Members with one `Family.chain_key`
    induce one chain, which is realised and solved once per query; each
    chain solved counts one `stats.checks`."""

    def __init__(self, fam: Family, q: SynthesisQuery, stats: Stats):
        self.fam, self.stats = fam, stats
        self.goal = q.goal if q.spec is None else q.spec.goal
        self.chains = {}  # chain key -> (chain, goal vector)

    def solve(self, r: Realisation, enumerated: bool = False):
        """`r`'s chain and its goal vector, refused as `realise` refuses
        an assignment that is not a member, unless `enumerated` says that
        `enumerate_realisations` yielded it, and so it is one."""
        if not enumerated:
            check_assignment(self.fam, r.assignment)
        key = self.fam.chain_key(r.assignment)
        if key not in self.chains:
            self.stats.checks += 1
            mc = realise(self.fam, r)
            self.chains[key] = mc, reach_probability(mc, self.goal)
        return self.chains[key]

    def value(self, r: Realisation, enumerated: bool = False) -> float:
        """Probability that `r` reaches the query's goal (see `solve`)."""
        mc, to_goal = self.solve(r, enumerated)
        return float(to_goal[mc.init])


def _values(fam: Family, q: SynthesisQuery, stats: Stats):
    """Yield (realisation, value, ok) in lexicographic candidate order: ok
    when the member meets the specification, if the query has one, and the
    budget."""
    members = Evaluator(fam, q, stats)
    for r in enumerate_realisations(fam):
        stats.candidates += 1
        stats.iterations += 1
        value = members.value(r, enumerated=True)
        ok = q.spec is None or \
            compare(value, q.spec.op, q.spec.threshold, q.tolerance)
        yield r, value, ok and within_budget(fam, q, r)


def enum_solve(fam: Family, q: SynthesisQuery) -> SynthesisOutcome:
    """Solve any synthesis query by checking every realisation.  A family
    of more than `ENUM_BOUND` members is refused before any is checked."""
    stats = Stats()
    try:
        if count_members(fam, initial_subfamily(fam)) > ENUM_BOUND:
            raise EngineError("family exceeds enumeration bound %d"
                              % ENUM_BOUND)
        if q.kind == "feasible":
            return _feasible(fam, q, stats)
        if q.kind == "partition":
            return _partition(fam, q, stats)
        return _optimise(fam, q, stats)
    finally:
        stats.stop()


def _feasible(fam, q, stats):
    for r, value, ok in _values(fam, q, stats):
        if ok:
            return witness_outcome(fam, q, r, value, stats)
    return SynthesisOutcome("unsat", stats=stats)


def _partition(fam, q, stats):
    T, F = [], []
    for r, _, ok in _values(fam, q, stats):
        (T if ok else F).append(r)
    return SynthesisOutcome("partition", T=T, F=F, stats=stats)


def _optimise(fam, q, stats):
    best = None  # (realisation, value)
    entries = [(r, value) for r, value, ok in _values(fam, q, stats) if ok]
    for r, value in entries:
        if best is None or beats(q, value, best[1]):
            best = (r, value)
    if best is None:
        return SynthesisOutcome("unsat", stats=stats)
    r, value = best
    if q.epsilon is not None:
        # eps-optimal: the lexicographically first realisation that the
        # optimum's eps bound does not beat
        bound = (1.0 - q.epsilon) * value if q.kind == "max" else \
            value / (1.0 - q.epsilon)
        r, value = next(e for e in entries if not beats(q, bound, e[1]))
    return witness_outcome(fam, q, r, value, stats)
