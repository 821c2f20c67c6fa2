"""Inductive synthesis engine: a clause-learning synthesiser proposes
candidates, the verifier model-checks them and generalises verdicts through
critical-subsystem conflicts.

A refuting (or establishing) critical set C fixes the chain's behaviour on C;
every realisation inducing the same transitions on C shares the verdict, so
one model-checker call can prune many family members.
"""

from __future__ import annotations

from ..family import Family, Realisation, enumerate_realisations, realise
from ..model import (ChainMatrix, MarkovChain, Specification, check,
                     compare, reach_probability, sub_mc)
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   witness_outcome, within_budget)
from .enumeration import Evaluator


def conflict_holes(fam: Family, critical) -> set:
    """Holes referenced by the outgoing transitions of the critical states."""
    return set().union(*(fam.rows[c].holes for c in critical))


def extract_counterexample(mc: MarkovChain, spec: Specification,
                           tol: float = 1e-6) -> frozenset:
    """Greedy critical-set construction.

    Reachable non-goal states are ranked once by the contribution score
    Pr(init reaches s) * Pr(s reaches goal), the first factor of every state
    coming from one factorisation (`first_passage`).  The critical set is
    {init} plus the shortest prefix of that ranking whose sub-MC alone
    decides the property.  The operator fixes what that means: an
    upper-bound spec (<=, <) must be violated and is refuted once the
    sub-value violates it; a lower-bound spec (>=, >) must be satisfied and
    is established once the sub-value clears it.  A sub-MC's value only
    grows with its critical set, so whether a prefix decides is monotone in
    its length, and bisection finds the shortest one with at most
    ceil(log2(m + 2)) valuations for m ranked states.  Each valuation solves
    the prefix's sub-MC on the candidate's arrays (`ChainMatrix.sub_value`),
    compiled once with the ranking; the chosen set alone is certified by an
    independent `check(sub_mc(...))`.
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
    n = 1
    for h in fam.holes:
        n *= len(scope[h.name]) if h.name in scope else len(h.options)
    return n


def scope_matches(scope: dict, r: Realisation) -> bool:
    return all(r[h] in opts for h, opts in scope.items())


# ---------------------------------------------------------------------------
# the synthesiser: DPLL over hole assignments with clause learning


class AssignmentSpace:
    """Boolean assignment space over (hole = option) atoms with exactly-one
    groups per hole, family constraints, and learned verdict clauses.

    A clause is a tuple of (hole index, option-index set) literals, each
    demanding the hole's option to lie outside its set: it blocks the
    product of the sets.
    """

    def __init__(self, fam: Family, budget=None, cost_model=None):
        self.fam = fam
        self.holes = fam.holes
        self.clauses = []
        self.refuted_stamp = [[0] * len(h.options) for h in fam.holes]
        self.stamp = 0
        self.budget = budget
        self.min_costs = None
        if budget is not None and (cost_model or fam.cost_model) == "optionsum":
            self.min_costs = [list(h.costs) for h in fam.holes]

    def learn_scope(self, scope: dict):
        """Block every assignment inside the scope product."""
        clause = []
        names = [h.name for h in self.holes]
        for h, opts in scope.items():
            idx = names.index(h)
            clause.append((idx, frozenset(self.holes[idx].option_index(o)
                                          for o in opts)))
        self.clauses.append(tuple(clause))

    def block_assignment(self, r: Realisation):
        self.learn_scope({h.name: frozenset([r[h.name]]) for h in self.holes})

    def mark_refuted(self, r: Realisation):
        self.stamp += 1
        for i, h in enumerate(self.holes):
            self.refuted_stamp[i][h.option_index(r[h.name])] = self.stamp

    def _propagate(self, domains):
        changed = True
        while changed:
            changed = False
            for clause in self.clauses:
                undetermined = []
                for i, opts in clause:
                    dom = domains[i]
                    if not dom & opts:
                        break  # the clause holds
                    if dom - opts:
                        undetermined.append((i, opts))
                else:
                    if not undetermined:
                        return None  # clause falsified
                    if len(undetermined) == 1:
                        i, opts = undetermined[0]
                        domains[i] = domains[i] - opts
                        changed = True
            if self.min_costs is not None:
                bound = sum(min(self.min_costs[i][o] for o in dom)
                            for i, dom in enumerate(domains))
                if bound > self.budget:
                    return None
        return domains

    def _ordered_options(self, i, domain):
        stamps = self.refuted_stamp[i]
        return sorted(domain, key=lambda o: (stamps[o], o))

    def next_candidate(self):
        """First unclassified constraint-satisfying assignment under DPLL with
        unit propagation; None once the space is exhausted."""
        domains = [set(range(len(h.options))) for h in self.holes]
        return self._search(domains)

    def _search(self, domains):
        domains = self._propagate([set(d) for d in domains])
        if domains is None:
            return None
        branch = None
        for i, dom in enumerate(domains):
            if len(dom) > 1:
                branch = i
                break
        if branch is None:
            assignment = {h.name: h.options[next(iter(dom))]
                          for h, dom in zip(self.holes, domains)}
            if not self.fam.satisfies_constraints(assignment):
                return None
            return Realisation(assignment)
        for o in self._ordered_options(branch, domains[branch]):
            child = [set(d) for d in domains]
            child[branch] = {o}
            found = self._search(child)
            if found is not None:
                return found
        return None


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
    singles = {}
    scopes = []  # (scope, sat)
    while True:
        r = space.next_candidate()
        if r is None:
            break
        stats.candidates += 1
        stats.iterations += 1
        key = r.key(fam)
        if stop_at_witness and not within_budget(fam, q, r):
            # structural costs are only checkable per candidate
            singles[key] = False
            space.block_assignment(r)
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
            scopes.append((scope, sat))
            space.learn_scope(scope)
            if not sat:
                space.mark_refuted(r)
            record.update(critical=sorted(critical),
                          conflict_holes=sorted(scope),
                          pruned=scope_size(fam, scope))
        else:
            singles[key] = sat
            space.block_assignment(r)
            if not sat:
                space.mark_refuted(r)
            record["pruned"] = 1
        stats.trace.append(record)
    if stop_at_witness:
        return SynthesisOutcome("unsat", stats=stats)
    T, F = [], []
    for r in enumerate_realisations(fam):
        key = r.key(fam)
        if key in singles:
            sat = singles[key]
        else:
            sat = None
            for scope, verdict in scopes:
                if scope_matches(scope, r):
                    sat = verdict
                    break
            if sat is None:
                raise EngineError("exhausted space left %r unclassified"
                                  % r.as_dict())
        (T if sat and within_budget(fam, q, r) else F).append(r)
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
