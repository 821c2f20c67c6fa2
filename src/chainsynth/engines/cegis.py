"""Inductive synthesis engine: the synthesiser proposes the next member no
verdict covers yet, the verifier model-checks it and generalises its verdict
through a critical-subsystem conflict.

A refuting (or establishing) critical set C fixes the chain's behaviour on C;
every realisation inducing the same transitions on C shares the verdict, so
one model-checker call can prune many family members.  The design space is
one verdict array over every combination of options, so a family with more
than `ENUM_BOUND` combinations is refused, as enum refuses it.  Max/min
search that one space too, under a spec that tightens past each witness.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from ..family import Family, Realisation, enumerate_realisations
from ..model import (COMPARISON_TOL, MarkovChain, Specification, check,
                     compare, reach_probability, sub_mc)
from .base import (STRICT_GAIN, EngineError, Stats, SynthesisOutcome,
                   SynthesisQuery, beats, witness_outcome, within_budget)
from .enumeration import ENUM_BOUND, Evaluator


def extract_counterexample(mc: MarkovChain, spec: Specification,
                           tol: float = COMPARISON_TOL, to_goal=None,
                           prunes=None) -> frozenset | None:
    """Greedy critical-set construction.

    The critical set is {init} if its sub-MC alone decides the property.
    Otherwise states are ranked in breadth-first discovery order from the
    initial state, goal states not expanded, keeping the non-goal states
    that can reach the goal, and the critical set is {init} plus the
    shortest prefix of that ranking whose sub-MC decides.  A skipped state
    (reachable only through the goal, or unable to reach it) never changes
    a sub-MC's value, so the full ranking decides exactly when the chain
    does.  The operator fixes what deciding means: an upper-bound spec
    (<=, <) must be violated and is refuted once the sub-value violates it;
    a lower-bound spec (>=, >) must be satisfied and is established once
    the sub-value clears it.  A sub-MC's value only grows with its critical
    set, so whether a prefix decides is monotone in its length, and
    bisection finds the shortest one with at most ceil(log2(m + 1))
    checks for m ranked states, after the one of {init}.  Each step checks
    the prefix's sub-MC (`check(sub_mc(...))`), so the set returned is
    certified by the check that chose it.

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

    def decides(critical):
        return check(sub_mc(mc, critical), spec, tol)[0] == want

    critical = [mc.init]
    if not decides(critical):
        order, seen = [], {mc.init}
        frontier = deque([mc.init])
        while frontier:
            for t in mc.transitions[frontier.popleft()].states:
                if t not in seen:
                    seen.add(t)
                    if t not in spec.goal:
                        frontier.append(t)
                        if to_goal[t] > 0.0:
                            order.append(t)
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
    return frozenset(critical)


def _option_scope(fam: Family, critical, r: Realisation) -> dict:
    """Per conflict hole (one that a critical state's transitions read), the
    options that select the same distribution as the candidate's choice in
    every critical state, whatever the state's other holes choose: the
    intersection of the choice's classes there (`Family.rows`).  A
    sub-MC depends only on its critical states' distributions, so every
    realisation in the product shares it."""
    scope = {}
    for c in critical:
        row = fam.rows[c]
        for pos, h in enumerate(row.holes):
            chosen = r[h]
            options = row.classes[pos][chosen] if row.classes \
                else frozenset((chosen,))
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
    """One search over one design space for every query kind.  A threshold
    query checks its spec.  Max/min start from the spec every member meets;
    each member that meets it becomes the witness, the spec tightens
    strictly past the witness's value (`_beyond`), and the witness is then
    handled as a member the new spec refutes.  A member is proposed once;
    one whose chain was solved before reuses that solve."""
    stats = Stats()
    members = Evaluator(fam, q, stats)
    spec, tol = q.spec, q.tolerance
    if spec is None:  # max/min: every member meets the first spec
        op, bound = (">=", 0.0) if q.kind == "max" else ("<=", 1.0)
        spec, tol = Specification(q.goal, op, bound), STRICT_GAIN
    partition = q.kind == "partition"
    upper = spec.op in ("<=", "<")  # a tightened spec keeps its direction
    # a partition lists members over budget in F: they stay in the space
    space = AssignmentSpace(fam, budget=None if partition else q.budget,
                            cost_model=q.cost_model)
    best = None  # (witness, value)
    try:
        while (r := space.next_candidate()) is not None:
            stats.candidates += 1
            stats.iterations += 1
            if not partition and not within_budget(fam, q, r):
                # structural costs are only checkable per candidate
                space.block_assignment(r, False)
                continue
            mc, to_goal = members.solve(r)
            value = float(to_goal[mc.init])
            sat = compare(value, spec.op, spec.threshold, tol)
            record = {"candidate": r.as_dict(), "value": value, "sat": sat,
                      "pruned": 1}
            stats.trace.append(record)
            if sat and not partition:
                best, spec = (r, value), _beyond(q, value)
                if spec is None:  # no scope is learned from the last witness
                    break
                sat = False  # the tightened spec refutes the witness
            # a refuted upper or an established lower bound generalises,
            # where a critical set could classify more than the candidate: a
            # set only shrinks its scope as it grows, and {init} is in every
            # one
            prunes = lambda c: space.would_prune(_option_scope(fam, c, r))
            critical = extract_counterexample(mc, spec, tol, to_goal, prunes) \
                if upper != sat and prunes([fam.init]) else None
            if critical is None:
                space.block_assignment(r, sat)
            else:
                scope = _option_scope(fam, critical, r)
                space.learn_scope(scope, sat)
                record.update(critical=sorted(critical),
                              conflict_holes=sorted(scope),
                              pruned=scope_size(fam, scope))
            if not sat:
                space.mark_refuted(r)
        if not partition:
            return SynthesisOutcome("unsat", stats=stats) if best is None \
                else witness_outcome(fam, q, *best, stats)
        T, F = [], []
        # without a seed budget only the constraints put members OUT, so the
        # other entries are the members, in lexicographic order
        verdicts = space.verdicts[space.verdicts != OUT].tolist()
        for r, verdict in zip(enumerate_realisations(fam), verdicts,
                              strict=True):
            if verdict == OPEN:
                raise EngineError("exhausted space left %r unclassified"
                                  % r.as_dict())
            (T if verdict and within_budget(fam, q, r) else F).append(r)
        return SynthesisOutcome("partition", T=T, F=F, stats=stats)
    finally:
        stats.stop()


def _beyond(q: SynthesisQuery, value: float):
    """The spec a member must meet to beat a witness worth `value` by the
    query's eps; None where none can: a feasible query wants one witness,
    and max/min stop once 1 (for min 0) does not beat the new threshold."""
    eps = q.epsilon or 0.0
    if q.kind == "max" and beats(q, 1.0, value / (1.0 - eps)):
        return Specification(q.goal, ">", value / (1.0 - eps))
    if q.kind == "min" and beats(q, 0.0, value * (1.0 - eps)):
        return Specification(q.goal, "<", value * (1.0 - eps))
    return None
