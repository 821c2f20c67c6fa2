"""Baseline enumeration engine: exact, deterministic, and the oracle the
other engines are validated against."""

from __future__ import annotations

from ..family import Family, enumerate_realisations, realise
from ..model import check, reach_probability
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   witness_outcome, within_budget)

ENUM_BOUND = 10 ** 6


def _values(fam: Family, q: SynthesisQuery, stats: Stats):
    """Yield (realisation, value, verdict) in lexicographic candidate order;
    the verdict against the specification is None for max/min queries."""
    count = 0
    for r in enumerate_realisations(fam):
        count += 1
        if count > ENUM_BOUND:
            raise EngineError("family exceeds enumeration bound %d" % ENUM_BOUND)
        stats.candidates += 1
        mc = realise(fam, r)
        if q.spec is not None:
            sat, value = check(mc, q.spec, q.tolerance)
        else:
            sat, value = None, float(reach_probability(mc, q.goal)[mc.init])
        stats.checks += 1
        yield r, value, sat


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
    for r, value, sat in _values(fam, q, stats):
        stats.iterations += 1
        if sat and within_budget(fam, q, r):
            return witness_outcome(fam, q, r, value, stats)
    return SynthesisOutcome("unsat", stats=stats)


def _partition(fam, q, stats):
    T, F = [], []
    for r, value, sat in _values(fam, q, stats):
        stats.iterations += 1
        (T if sat and within_budget(fam, q, r) else F).append(r)
    return SynthesisOutcome("partition", T=T, F=F, stats=stats)


def _optimise(fam, q, stats):
    best = None  # (realisation, value)
    better = (lambda v, b: v > b + 1e-12) if q.kind == "max" \
        else (lambda v, b: v < b - 1e-12)
    entries = []
    for r, value, _ in _values(fam, q, stats):
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
