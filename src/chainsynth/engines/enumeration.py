"""Baseline enumeration engine: exact, deterministic, the oracle for the
other engines; its `Evaluator` values members for every engine."""

from __future__ import annotations

from ..family import Family, Realisation, enumerate_realisations, realise
from ..model import Specification, compare, reach_probability
from ..model import check  # noqa: F401 -- perfbench's tracer wraps this name
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   witness_outcome, within_budget)

ENUM_BOUND = 10 ** 6


class Evaluator:
    """The one place a member is valued: it realises the member, solves its
    chain for the query's goal once and remembers the value by member key.
    Each chain solved counts one `stats.checks`.  `solved` holds the chain
    and goal vector of the member the last `verdict` call solved, or None
    if that call read the value from memory."""

    def __init__(self, fam: Family, q: SynthesisQuery, stats: Stats):
        self.fam, self.stats = fam, stats
        self.goal = q.goal if q.spec is None else q.spec.goal
        self.values = {}
        self.solved = None

    def verdict(self, r: Realisation, spec: Specification, tol: float):
        """(verdict, value) of `r`, as `check` gives it; `spec` names the
        query's goal."""
        key = r.key(self.fam)
        self.solved = None
        if key not in self.values:
            self.stats.checks += 1
            mc = realise(self.fam, r)
            self.solved = mc, reach_probability(mc, spec.goal)
            self.values[key] = float(self.solved[1][mc.init])
        value = self.values[key]
        return compare(value, spec.op, spec.threshold, tol), value

    def value(self, r: Realisation) -> float:
        """Probability that `r` reaches the query's goal."""
        key = r.key(self.fam)
        if key not in self.values:
            self.stats.checks += 1
            mc = realise(self.fam, r)
            self.values[key] = float(reach_probability(mc, self.goal)[mc.init])
        return self.values[key]


def _values(fam: Family, q: SynthesisQuery, stats: Stats):
    """Yield (realisation, verdict, value) in lexicographic candidate order;
    the verdict against the specification is None for max/min queries."""
    members = Evaluator(fam, q, stats)
    for count, r in enumerate(enumerate_realisations(fam), 1):
        if count > ENUM_BOUND:
            raise EngineError("family exceeds enumeration bound %d" % ENUM_BOUND)
        stats.candidates += 1
        yield (r, None, members.value(r)) if q.spec is None \
            else (r, *members.verdict(r, q.spec, q.tolerance))


def enum_solve(fam: Family, q: SynthesisQuery) -> SynthesisOutcome:
    """Solve any synthesis query by checking every realisation."""
    stats = Stats()
    try:
        if q.kind == "feasible":
            return _feasible(fam, q, stats)
        if q.kind == "partition":
            return _partition(fam, q, stats)
        return _optimise(fam, q, stats)
    finally:
        stats.stop()


def _feasible(fam, q, stats):
    for r, sat, value in _values(fam, q, stats):
        stats.iterations += 1
        if sat and within_budget(fam, q, r):
            return witness_outcome(fam, q, r, value, stats)
    return SynthesisOutcome("unsat", stats=stats)


def _partition(fam, q, stats):
    T, F = [], []
    for r, sat, value in _values(fam, q, stats):
        stats.iterations += 1
        (T if sat and within_budget(fam, q, r) else F).append(r)
    return SynthesisOutcome("partition", T=T, F=F, stats=stats)


def _optimise(fam, q, stats):
    best = None  # (realisation, value)
    better = (lambda v, b: v > b + 1e-12) if q.kind == "max" \
        else (lambda v, b: v < b - 1e-12)
    entries = []
    for r, _, value in _values(fam, q, stats):
        stats.iterations += 1
        if not within_budget(fam, q, r):
            continue
        entries.append((r, value))
        if best is None or better(value, best[1]):
            best = (r, value)
    if best is None:
        return SynthesisOutcome("unsat", stats=stats)
    r, value = best
    if q.epsilon is not None:
        # eps-optimal: lexicographically first realisation close enough
        bound = (1.0 - q.epsilon) * value if q.kind == "max" else \
            value / (1.0 - q.epsilon)
        for r2, v2 in entries:
            ok = v2 >= bound - 1e-12 if q.kind == "max" else v2 <= bound + 1e-12
            if ok:
                r, value = r2, v2
                break
    return witness_outcome(fam, q, r, value, stats)
