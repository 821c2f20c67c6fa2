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


def extract_counterexample(mc: MarkovChain, spec: Specification,
                           tol: float = 1e-6, to_goal=None,
                           prunes=None) -> frozenset | None:
    """Greedy critical-set construction.

    The critical set is {init} if its sub-MC alone decides the property.
    Otherwise reachable non-goal states are ranked once by the contribution
    score Pr(init reaches s) * Pr(s reaches goal), the first factor of every
    state coming from one factorisation (`ChainMatrix.first_passage`), and
    the critical set is {init} plus the shortest prefix of that ranking
    whose sub-MC decides.  The operator fixes what deciding means: an
    upper-bound spec (<=, <) must be violated and is refuted once the
    sub-value violates it; a lower-bound spec (>=, >) must be satisfied and
    is established once the sub-value clears it.  A sub-MC's value only
    grows with its critical set, so whether a prefix decides is monotone in
    its length, and bisection finds the shortest one with at most
    ceil(log2(m + 1)) valuations for m ranked states, after the one of
    {init}.  Each valuation (`ChainMatrix.sub_value`) values the prefix's
    sub-MC on the candidate's arrays, compiled once per conflict, by the
    qualitative pass and the solve that `check(sub_mc(...))` runs, so the
    two agree exactly; that check certifies the chosen set alone.

    `to_goal`, the chain's goal vector, is solved here if not given.  After
    each failed bisection step `prunes`, if given, is asked whether a
    critical set containing the prefix can still generalise beyond the
    candidate; if not, the search stops and returns None.
    """
    if to_goal is None:
        to_goal = reach_probability(mc, spec.goal)
    verdict = compare(float(to_goal[mc.init]), spec.op, spec.threshold, tol)
    want = spec.op in (">=", ">")  # the sub-MC's verdict that decides
    if verdict != want:
        raise EngineError("establishing requires a satisfied lower-bound spec"
                          if want else
                          "refutation requires a violated upper-bound spec")

    chain = ChainMatrix(mc)

    def decides(critical):
        value = chain.sub_value(critical, spec.goal)
        return compare(value, spec.op, spec.threshold, tol) == want

    critical = [mc.init]
    if not decides(critical):
        from_init, reached = chain.first_passage()
        scores = {s: float(from_init[s]) * float(to_goal[s])
                  for s in reached if s != mc.init and s not in spec.goal}
        # equal scores come out of the factorisation equal only up to
        # rounding: a score within a relative 1e-12 of the first of its run
        # ties with it, and ties are broken by index
        tied, lead = {}, None
        for s in sorted(scores, key=scores.get, reverse=True):
            if lead is None or scores[lead] - scores[s] > 1e-12 * scores[lead]:
                lead = s
            tied[s] = scores[lead]
        order = sorted(scores, key=lambda s: (-tied[s], s))

        lo, hi = 1, len(order) + 1  # every prefix shorter than lo fails
        while lo < hi:  # hi decides, or is past the full reachable set
            mid = (lo + hi) // 2
            if decides([mc.init, *order[:mid]]):
                hi = mid
            else:
                lo = mid + 1
                if prunes is not None and not prunes([mc.init, *order[:lo]]):
                    return None
        if hi > len(order):
            raise EngineError("the full reachable set does not decide the "
                              "property")
        critical = [mc.init, *order[:hi]]
    critical = frozenset(critical)
    if check(sub_mc(mc, critical), spec, tol)[0] != want:
        raise EngineError("the sub-MC check of the critical set does not "
                          "decide the property")
    return critical


def _option_scope(fam: Family, critical, r: Realisation, kept=None) -> dict:
    """Per conflict hole (one that a critical state's transitions read), the
    options that select the same distribution as the candidate's choice in
    every critical state, whatever the state's other holes choose.  A sub-MC
    depends only on its critical states' distributions, so every
    realisation in the product shares it.  Those options are the
    intersection of each critical state's own, which `kept` may carry from
    call to call on one family."""
    kept = {} if kept is None else kept
    scope = {}
    for c in critical:
        row = fam.rows[c]
        for pos, h in enumerate(row.holes):
            chosen = r[h]
            if (c, h, chosen) not in kept:
                kept[c, h, chosen] = frozenset(
                    option for option in fam.hole(h).options
                    if all(dist == row.dists[combo[:pos] + (option,)
                                             + combo[pos + 1:]]
                           for combo, dist in row.dists.items()
                           if combo[pos] == chosen))
            options = kept[c, h, chosen]
            scope[h] = scope[h] & options if h in scope else options
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
        self.orders = [list(range(n)) for n in shape]  # per hole, trial order

    def _point(self, r: Realisation) -> tuple:
        return tuple(h.option_index(r[h.name]) for h in self.fam.holes)

    def _axes(self, scope: dict):
        """Per hole the scope restricts: its axis and its options' indices."""
        for name, opts in scope.items():
            i = self.index[name]
            yield i, [k for k, option in enumerate(self.fam.holes[i].options)
                      if option in opts]

    def learn_scope(self, scope: dict, verdict: bool):
        """Give `verdict` to every OPEN member of the scope product."""
        box = [range(n) for n in self.verdicts.shape]
        for axis, indices in self._axes(scope):
            box[axis] = indices
        box = np.ix_(*box)
        part = self.verdicts[box]
        self.verdicts[box] = np.where(part == OPEN, int(verdict), part)

    def would_prune(self, scope: dict) -> bool:
        """Whether the scope product holds more than one OPEN member.  A
        candidate is OPEN and lies in every scope learned from it, so if
        not, `learn_scope` would classify the candidate alone."""
        part = self.verdicts
        for axis, indices in self._axes(scope):
            part = part.take(indices, axis=axis)
        return np.count_nonzero(part == OPEN) > 1

    def block_assignment(self, r: Realisation, verdict: bool):
        self.verdicts[self._point(r)] = verdict

    def mark_refuted(self, r: Realisation):
        """Try `r`'s options last: members are tried in the product order
        of each hole's options ordered unrefuted first, by index, then least
        recently refuted."""
        for order, o in zip(self.orders, self._point(r)):
            order.remove(o)
            order.append(o)

    def next_candidate(self):
        """The first OPEN member in trial order; None once none is OPEN."""
        trial = self.verdicts[np.ix_(*self.orders)]
        is_open = (trial == OPEN).ravel()
        k = int(is_open.argmax())
        if not is_open[k]:
            return None
        at = np.unravel_index(k, trial.shape)
        return Realisation({h.name: h.options[order[i]] for h, order, i
                            in zip(self.fam.holes, self.orders, at)})


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
    kept = {}  # `_option_scope`'s per-state options, for the whole search
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
        critical = None
        # a refuted upper or an established lower bound generalises, where
        # a critical set could classify more than the candidate: a set
        # only shrinks its scope as it grows, and {init} is in every one
        prunes = lambda c: space.would_prune(_option_scope(fam, c, r, kept))
        if upper != sat and prunes([fam.init]):
            mc, to_goal = members.solved or (realise(fam, r), None)
            critical = extract_counterexample(mc, spec, tol, to_goal, prunes)
        if critical is None:
            space.block_assignment(r, sat)
            record["pruned"] = 1
        else:
            scope = _option_scope(fam, critical, r, kept)
            space.learn_scope(scope, sat)
            record.update(critical=sorted(critical),
                          conflict_holes=sorted(scope),
                          pruned=scope_size(fam, scope))
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
