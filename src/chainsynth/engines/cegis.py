"""Inductive synthesis engine: the synthesiser proposes the next member no
verdict covers yet, the verifier model-checks it and generalises its verdict
through a critical-subsystem conflict.

A refuting (or establishing) critical set C fixes the chain's behaviour on C;
every realisation inducing the same transitions on C shares the verdict, so
one model-checker call can prune many family members.  The design space is
one verdict array over every combination of options, so a family with more
than `ENUM_BOUND` combinations is refused, as enum refuses it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..family import Family, Realisation, enumerate_realisations, realise
from ..model import (ChainMatrix, MarkovChain, Specification, check,
                     compare, reach_probability, sub_mc)
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   witness_outcome, within_budget)
from .enumeration import ENUM_BOUND, Evaluator


def conflict_holes(fam: Family, critical) -> set:
    """Holes referenced by the outgoing transitions of the critical states."""
    return set().union(*(fam.rows[c].holes for c in critical))


def extract_counterexample(mc: MarkovChain, spec: Specification,
                           tol: float = 1e-6) -> frozenset:
    """Greedy critical-set construction.

    Reachable non-goal states are ranked once by the contribution score
    Pr(init reaches s) * Pr(s reaches goal), the first factor of every state
    coming from one factorisation (`ChainMatrix.first_passage`).  The
    critical set is {init} plus the shortest prefix of that ranking whose
    sub-MC alone decides the property.  The operator fixes what that means: an
    upper-bound spec (<=, <) must be violated and is refuted once the
    sub-value violates it; a lower-bound spec (>=, >) must be satisfied and
    is established once the sub-value clears it.  A sub-MC's value only
    grows with its critical set, so whether a prefix decides is monotone in
    its length, and bisection finds the shortest one with at most
    ceil(log2(m + 2)) valuations for m ranked states.  Each valuation
    (`ChainMatrix.sub_value`) values the prefix's sub-MC on the candidate's
    arrays, compiled once with the ranking, by the qualitative pass and the
    solve that `check(sub_mc(...))` runs, so the two agree exactly; that
    check certifies the chosen set alone.
    """
    to_goal = reach_probability(mc, spec.goal)
    verdict = compare(float(to_goal[mc.init]), spec.op, spec.threshold, tol)
    want = spec.op in (">=", ">")  # the sub-MC's verdict that decides
    if verdict != want:
        raise EngineError("establishing requires a satisfied lower-bound spec"
                          if want else
                          "refutation requires a violated upper-bound spec")

    chain = ChainMatrix(mc)
    from_init, reached = chain.first_passage()
    scores = {s: float(from_init[s]) * float(to_goal[s])
              for s in reached if s != mc.init and s not in spec.goal}
    # equal scores come out of the factorisation equal only up to rounding:
    # a score within a relative 1e-12 of the first of its run ties with it,
    # and ties are broken by index
    tied, lead = {}, None
    for s in sorted(scores, key=scores.get, reverse=True):
        if lead is None or scores[lead] - scores[s] > 1e-12 * scores[lead]:
            lead = s
        tied[s] = scores[lead]
    order = sorted(scores, key=lambda s: (-tied[s], s))

    def decides(k):
        value = chain.sub_value([mc.init, *order[:k]], spec.goal)
        return compare(value, spec.op, spec.threshold, tol) == want

    lo, hi = 0, len(order) + 1  # every prefix shorter than lo fails
    while lo < hi:  # hi decides, or is past the full reachable set
        mid = (lo + hi) // 2
        if decides(mid):
            hi = mid
        else:
            lo = mid + 1
    if hi > len(order):
        raise EngineError("the full reachable set does not decide the "
                          "property")
    critical = frozenset([mc.init, *order[:hi]])
    if check(sub_mc(mc, critical), spec, tol)[0] != want:
        raise EngineError("the sub-MC check of the critical set does not "
                          "decide the property")
    return critical


def _option_scope(fam: Family, critical, r: Realisation) -> dict:
    """Per conflict hole, the options that select the same distribution as
    the candidate's choice in every critical state, whatever the state's
    other holes choose.  A sub-MC depends only on its critical states'
    distributions, so every realisation in the product shares it."""
    scope = {}
    for h in conflict_holes(fam, critical):
        chosen = r[h]
        rows = [(row, row.holes.index(h)) for row in
                (fam.rows[c] for c in critical) if h in row.holes]
        scope[h] = frozenset(
            option for option in fam.hole(h).options
            if all(dist == row.dists[combo[:pos] + (option,) + combo[pos + 1:]]
                   for row, pos in rows
                   for combo, dist in row.dists.items()
                   if combo[pos] == chosen))
    return scope


def scope_size(fam: Family, scope: dict) -> int:
    return math.prod(len(scope.get(h.name, h.options)) for h in fam.holes)


# ---------------------------------------------------------------------------
# the synthesiser: one verdict per member of the option product

OPEN, OUT = -1, -2  # unclassified; excluded by the constraints or the budget


class AssignmentSpace:
    """The design space as one int8 array over the product of the holes'
    option indices, whose C order is the lexicographic member order.  Each
    entry is OPEN, a verdict (0 or 1), or OUT: excluded by the family's
    constraints or by an optionsum budget.  The first verdict written to an
    entry stands.
    """

    def __init__(self, fam: Family, budget=None, cost_model=None):
        if fam.size() > ENUM_BOUND:
            raise EngineError("family exceeds enumeration bound %d"
                              % ENUM_BOUND)
        self.fam = fam
        self.index = {h.name: i for i, h in enumerate(fam.holes)}
        shape = tuple(len(h.options) for h in fam.holes)
        out = np.zeros(shape, dtype=bool)
        for c in fam.constraints:  # valued over the holes it reads only
            read = sorted({self.index[a.hole] for a in c.atoms()})
            names = [fam.holes[i].name for i in read]
            ok = [c.eval(dict(zip(names, combo))) for combo in
                  itertools.product(*(fam.holes[i].options for i in read))]
            out |= ~np.reshape(ok, [n if i in read else 1
                                    for i, n in enumerate(shape)])
        if budget is not None and (cost_model or fam.cost_model) == "optionsum":
            out |= sum(np.ix_(*(h.costs for h in fam.holes))) > budget
        self.verdicts = np.where(out, OUT, OPEN).astype(np.int8)
        self.trial = np.arange(self.verdicts.size)  # members, in trial order
        self.refuted_stamp = [[0] * n for n in shape]
        self.stamp = 0

    def _point(self, r: Realisation) -> tuple:
        return tuple(h.option_index(r[h.name]) for h in self.fam.holes)

    def learn_scope(self, scope: dict, verdict: bool):
        """Give `verdict` to every OPEN member of the scope product."""
        box = [range(len(h.options)) for h in self.fam.holes]
        for name, opts in scope.items():
            i = self.index[name]
            box[i] = sorted(map(self.fam.holes[i].option_index, opts))
        box = np.ix_(*box)
        part = self.verdicts[box]
        self.verdicts[box] = np.where(part == OPEN, int(verdict), part)

    def block_assignment(self, r: Realisation, verdict: bool):
        self.verdicts[self._point(r)] = verdict

    def mark_refuted(self, r: Realisation):
        """Try `r`'s options last: members are tried in the product order
        of each hole's options sorted unrefuted first, then least recently
        refuted, ties by index."""
        self.stamp += 1
        for stamps, o in zip(self.refuted_stamp, self._point(r)):
            stamps[o] = self.stamp
        order = np.ix_(*(sorted(range(len(stamps)), key=stamps.__getitem__)
                         for stamps in self.refuted_stamp))
        members = np.arange(self.verdicts.size).reshape(self.verdicts.shape)
        self.trial = members[order].ravel()

    def next_candidate(self):
        """The first OPEN member in trial order; None once none is OPEN."""
        is_open = self.verdicts.ravel()[self.trial] == OPEN
        k = int(is_open.argmax())
        if not is_open[k]:
            return None
        at = np.unravel_index(self.trial[k], self.verdicts.shape)
        return Realisation({h.name: h.options[i]
                            for h, i in zip(self.fam.holes, at)})


# ---------------------------------------------------------------------------
# the verifier loop


def cegis_solve(fam: Family, q: SynthesisQuery) -> SynthesisOutcome:
    stats = Stats()
    members = Evaluator(fam, q, stats)
    try:
        if q.kind in ("feasible", "partition"):
            return _threshold(fam, q, members, q.spec,
                              stop_at_witness=q.kind == "feasible",
                              tol=q.tolerance)
        return _optimise(fam, q, members)
    finally:
        stats.stop()


def _threshold(fam, q, members, spec, stop_at_witness, tol):
    stats = members.stats
    upper = spec.op in ("<=", "<")
    seed_budget = q.budget if stop_at_witness else None
    space = AssignmentSpace(fam, budget=seed_budget, cost_model=q.cost_model)
    while True:
        r = space.next_candidate()
        if r is None:
            break
        stats.candidates += 1
        stats.iterations += 1
        if stop_at_witness and not within_budget(fam, q, r):
            # structural costs are only checkable per candidate
            space.block_assignment(r, False)
            continue
        sat, value = members.verdict(r, spec, tol)
        record = {"candidate": r.as_dict(), "value": value, "sat": sat}
        if sat and stop_at_witness:  # within budget, checked above
            # the witness ends this search: a scope learned from it would
            # be discarded, so none is extracted
            record["pruned"] = 1
            stats.trace.append(record)
            return witness_outcome(fam, q, r, value, stats)
        if upper != sat:  # a refuted upper or an established lower bound
            critical = extract_counterexample(realise(fam, r), spec, tol)
            scope = _option_scope(fam, critical, r)
            space.learn_scope(scope, sat)
            record.update(critical=sorted(critical),
                          conflict_holes=sorted(scope),
                          pruned=scope_size(fam, scope))
        else:
            space.block_assignment(r, sat)
            record["pruned"] = 1
        if not sat:
            space.mark_refuted(r)
        stats.trace.append(record)
    if stop_at_witness:
        return SynthesisOutcome("unsat", stats=stats)
    T, F = [], []
    # without a seed budget only the constraints put members OUT, so the
    # other entries are the members, in lexicographic order
    verdicts = space.verdicts[space.verdicts != OUT].tolist()
    for r, verdict in zip(enumerate_realisations(fam), verdicts, strict=True):
        if verdict == OPEN:
            raise EngineError("exhausted space left %r unclassified"
                              % r.as_dict())
        (T if verdict and within_budget(fam, q, r) else F).append(r)
    return SynthesisOutcome("partition", T=T, F=F, stats=stats)


def _optimise(fam, q, members):
    """Max/min synthesis as iterated feasibility: tighten the threshold to
    the incumbent value with a strict operator until unsatisfiable."""
    maximise = q.kind == "max"
    eps = q.epsilon or 0.0
    spec = Specification(q.goal, ">=" if maximise else "<=",
                         0.0 if maximise else 1.0)
    best = None
    while True:
        # strict internal comparisons keep the optimum tight
        out = _threshold(fam, q, members, spec, stop_at_witness=True,
                         tol=1e-9)
        if out.kind == "unsat":
            return out if best is None else best
        best = out
        if maximise:
            lam = out.value / (1.0 - eps)
            if lam > 1.0:
                return best
            spec = Specification(q.goal, ">", lam)
        else:
            lam = out.value * (1.0 - eps)
            if lam < 0.0:
                return best
            spec = Specification(q.goal, "<", lam)
