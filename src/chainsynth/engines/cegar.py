"""Abstraction-refinement engine: verify the quotient MDP of a subfamily,
classify it wholesale when the bounds are conclusive, otherwise split along
the hole an inconsistent optimising scheduler disagrees on."""

from __future__ import annotations

from operator import getitem

from ..family import (ConsistencyVerdict, Family, Realisation, Subfamily,
                      count_members, enumerate_realisations,
                      initial_subfamily, quotient_mdp, scheduler_consistency)
from ..model import compare, induced_chain, mdp_extremal
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery,
                   beats, witness_outcome, within_budget)
from .enumeration import Evaluator

# a quotient is checked only where it is expected to settle more members
QUOTIENT_COST = 1.5


def split(sub: Subfamily, verdict: ConsistencyVerdict, fam: Family):
    """Split on the most-inconsistent hole, the one whose chosen options
    span two classes or more (`scheduler_consistency`) with the most
    options chosen: separate its most frequently chosen option from the
    rest of the remaining options, its class mates included."""
    if verdict.consistent:
        raise EngineError("split called with a consistent verdict")
    names = [h.name for h in fam.holes]
    hole = max(sorted(verdict.inconsistent, key=names.index),
               key=lambda h: len(verdict.inconsistent[h]))
    idx = names.index(hole)
    remaining = sub.remaining[idx]
    freqs = verdict.frequencies[hole]
    pick = max(remaining, key=lambda o: (freqs.get(o, 0), -remaining.index(o)))
    rest = tuple(o for o in remaining if o != pick)
    return sub.replace(idx, (pick,)), sub.replace(idx, rest)


def _split_off(sub: Subfamily, r: Realisation, fam: Family):
    """Partition `sub`, which holds two members or more, around the
    realisation r.  Take the lowest hole whose remaining options span two
    classes or more (`Family.option_classes`) and halve its list of
    classes, ordered by first remaining option: options of one class
    induce one chain, so no box separates them.  Where each hole's
    remaining options are one class, halve the options of the lowest hole
    with two or more.  Each half keeps declaration order; the half holding
    r's choice comes first."""
    for idx, (opts, first) in enumerate(zip(sub.remaining,
                                            fam.option_classes)):
        classes = list(dict.fromkeys(map(first.__getitem__, opts)))
        if len(classes) >= 2:
            break
    else:
        idx = next(i for i, opts in enumerate(sub.remaining) if len(opts) >= 2)
        opts = sub.remaining[idx]
        first, classes = dict(zip(opts, opts)), opts
    lower = set(classes[:len(classes) // 2])
    halves = (tuple(o for o in opts if first[o] in lower),
              tuple(o for o in opts if first[o] not in lower))
    if r[fam.holes[idx].name] in halves[1]:
        halves = halves[::-1]
    return tuple(sub.replace(idx, half) for half in halves)


def _members(fam, sub, excluded):
    """The members of `sub` outside `excluded`, listed lazily."""
    for r in enumerate_realisations(fam, sub):
        if r.key(fam) not in excluded:
            yield r


def _min_possible_cost(fam, sub, q):
    if (q.cost_model or fam.cost_model) != "optionsum":
        return None  # structural cost admits no cheap family-level bound
    total = 0
    for h, opts in zip(fam.holes, sub.remaining):  # a hole may have none
        total += min((h.costs[h.option_index(o)] for o in opts), default=0)
    return total


def _lex_sorted(fam, realisations):
    """`realisations` in lexicographic hole/option declaration order."""
    order = [{o: i for i, o in enumerate(h.options)} for h in fam.holes]
    key_of = fam.key_of
    return sorted(realisations, key=lambda r: tuple(
        map(getitem, order, key_of(r.assignment))))


def _direct(size, quotients, conclusive, blind):
    """Whether to check a subfamily's `size` members one by one instead of
    its quotient.  Always at two members or fewer, never for the query's
    first subfamily, else when size * p <= QUOTIENT_COST: a conclusive
    quotient settles all `size` members, any other only splits them.  p is
    the smoothed share (conclusive + 1) / (quotients + 1) of conclusive
    quotients among those checked after the first, which was inconclusive,
    or no subfamily would be left.  A `blind` quotient (max/min before any
    member value, so it cannot be pruned) counts as one more inconclusive
    check."""
    if size <= 2:
        return True
    return quotients > 0 and \
        size * (conclusive + 1) <= QUOTIENT_COST * (quotients + 1 + blind)


def cegar_solve(fam: Family, q: SynthesisQuery) -> SynthesisOutcome:
    """One refinement loop for every query kind: take the oldest subfamily and
    count its members.  Check them directly where `_direct` says a quotient
    is not expected to pay for itself, stopping early when a member ends the
    search.  Else check the quotient and let the query kind classify the
    subfamily from its bounds, listing members only where the verdict emits
    them.  Failing that, split along the scheduler that attains them: around
    its realisation (checked once) when it chooses every hole consistently,
    else along the hole it disagrees on most.  Worklist entries carry the
    members already checked, the parent quotient's bound, which still
    covers the members of a subfamily being checked directly, and per mode
    the scheduler the parent quotient was solved with, from which a part's
    quotient solve starts (`mdp_extremal`'s `start`)."""
    stats = Stats()
    search = (_Threshold if q.spec is not None else _Optimum)(fam, q, stats)
    worklist = [(initial_subfamily(fam), frozenset(), None, {})]
    quotients = conclusive = 0
    try:
        while worklist and not search.finished(worklist):
            sub, excluded, inherited, starts = worklist.pop(0)
            if search.prunes(sub, inherited):
                continue
            size = count_members(fam, sub, excluded)
            if not size:
                continue
            stats.iterations += 1
            members = _members(fam, sub, excluded)
            if _direct(size, quotients, conclusive, search.blind()):
                pending = [(sub, excluded, inherited, starts)] + worklist
                for r in members:
                    search.single(r)
                    if search.finished(pending):
                        break
                continue
            mdp = quotient_mdp(fam, sub)
            stats.checks += 1
            quotients += 1
            record = {"size": size}
            stats.trace.append(record)
            sched, bound, solved = search.bounds(mdp, members, record,
                                                 starts)
            if sched is None:  # all-sat, all-violate or pruned
                conclusive += 1
                continue
            verdict = scheduler_consistency(
                fam, sub, sched, induced_chain(mdp, sched).reachable())
            if not verdict.consistent:
                parts = split(sub, verdict, fam)
                record.update(verdict="inconsistent", inconsistent={
                    h: sorted(v) for h, v in verdict.inconsistent.items()},
                    split=True)
            else:
                r = verdict.realisation
                if fam.satisfies_constraints(r.assignment) \
                        and r.key(fam) not in excluded:
                    record.update(verdict="consistent",
                                  realisation=r.as_dict())
                    if search.member(r):
                        break
                    excluded = excluded | {r.key(fam)}
                else:
                    record["verdict"] = "consistent-stale"
                parts = _split_off(sub, r, fam)
                record["split"] = True
            worklist.extend((p, excluded, bound, solved) for p in parts)
        return search.outcome()
    finally:
        stats.stop()


class _Search:
    """The per-kind steps of the refinement loop.  `member` classifies one
    member and returns True when that ends the search; `bounds` checks a
    quotient, each mode's solve starting from `starts[mode]` where the
    parent's quotient was solved in that mode, classifies the subfamily if
    its bounds are conclusive and otherwise returns the scheduler to
    analyse, the bound the subfamily's parts inherit and the schedulers,
    per mode, that their solves start from."""

    def __init__(self, fam, q, stats):
        self.fam, self.q, self.stats = fam, q, stats
        self.members = Evaluator(fam, q, stats)

    def prunes(self, sub, bound):
        return False

    def blind(self):
        """Whether a quotient checked now cannot be conclusive."""
        return False

    def single(self, r):
        self.member(r)


class _Threshold(_Search):
    """feasible/partition: conclusive min/max bounds put the whole
    subfamily into T or F; otherwise the scheduler attaining the bound that
    blocks a verdict is analysed.  The bound least favourable to the spec
    (min for > and >=, max for < and <=) is solved first.  The other is
    solved only when the first is not all-sat, and a trace record keeps it
    as None when it was not."""

    def __init__(self, fam, q, stats):
        super().__init__(fam, q, stats)
        self.lower = q.spec.op in (">=", ">")  # T needs the quotient min
        self.T, self.F = [], []
        self.witness = None  # (realisation, value); value None if unchecked

    def finished(self, worklist):
        return self.witness is not None

    def _take(self, r, sat, value=None):
        (self.T if sat else self.F).append(r)
        if sat and self.q.kind == "feasible":
            self.witness = (r, value)
        return self.witness is not None

    def _check(self, r):
        self.stats.candidates += 1
        spec, value = self.q.spec, self.members.value(r)
        sat = compare(value, spec.op, spec.threshold, self.q.tolerance) \
            and within_budget(self.fam, self.q, r)
        self._take(r, sat, value)
        return sat

    def member(self, r):
        self._check(r)
        return self.witness is not None

    def single(self, r):
        sat = self._check(r)
        self.stats.trace.append({"size": 1, "verdict": "direct", "sat": sat})

    def bounds(self, mdp, members, record, starts):
        spec, tol = self.q.spec, self.q.tolerance
        worst_mode, best_mode = ("min", "max") if self.lower \
            else ("max", "min")
        record.update(min=None, max=None)
        worst, sched = mdp_extremal(mdp, spec.goal, worst_mode,
                                    start=starts.get(worst_mode))
        record[worst_mode] = worst
        if compare(worst, spec.op, spec.threshold, tol):
            record["verdict"] = "all-sat"
            for r in members:  # under a budget, each member's cost decides
                if self._take(r, within_budget(self.fam, self.q, r)):
                    break
            return None, None, None
        best, best_sched = mdp_extremal(mdp, spec.goal, best_mode,
                                        start=starts.get(best_mode))
        record[best_mode] = best
        if not compare(best, spec.op, spec.threshold, tol):
            if self.q.kind == "partition":  # feasible has no use for F
                self.F.extend(members)
            record["verdict"] = "all-violate"
            return None, None, None
        return sched, None, {worst_mode: sched, best_mode: best_sched}

    def outcome(self):
        fam, q = self.fam, self.q
        if q.kind == "partition":
            return SynthesisOutcome("partition", T=_lex_sorted(fam, self.T),
                                    F=_lex_sorted(fam, self.F),
                                    stats=self.stats)
        if self.witness is None:
            return SynthesisOutcome("unsat", stats=self.stats)
        r, value = self.witness
        if value is None:  # classified by the quotient's bounds
            value = self.members.value(r)
        return witness_outcome(fam, q, r, value, self.stats)


class _Optimum(_Search):
    """max/min: the incumbent is the best member value checked; a subfamily
    whose quotient bound cannot beat it is pruned, and with eps the search
    stops once the incumbent is eps-close to every bound left."""

    def __init__(self, fam, q, stats):
        super().__init__(fam, q, stats)
        self.maximise = q.kind == "max"
        self.eps = q.epsilon or 0.0
        self.incumbent = None  # (realisation, value)

    def finished(self, worklist):
        if self.incumbent is None or self.eps == 0.0:
            return False
        bounds = [b for _, _, b, _ in worklist if b is not None]
        if not bounds:
            return False
        # the incumbent is eps-optimal once no bound left beats it by eps
        return self._beaten((1.0 - self.eps) * max(bounds) if self.maximise
                            else min(bounds) / (1.0 - self.eps))

    def _beaten(self, bound):
        return self.incumbent is not None and bound is not None \
            and not beats(self.q, bound, self.incumbent[1])

    def blind(self):
        return self.incumbent is None

    def prunes(self, sub, bound):
        if self._beaten(bound):
            return True
        if self.q.budget is None:
            return False
        least = _min_possible_cost(self.fam, sub, self.q)
        return least is not None and least > self.q.budget

    def member(self, r):
        if within_budget(self.fam, self.q, r):
            self.stats.candidates += 1
            v = self.members.value(r)
            best = self.incumbent
            if best is None or beats(self.q, v, best[1]):
                self.incumbent = (r, v)
        return False

    def bounds(self, mdp, members, record, starts):
        mode = "max" if self.maximise else "min"
        bound, sched = mdp_extremal(mdp, self.q.goal, mode,
                                    start=starts.get(mode))
        record.update(bound=bound, mode=mode)
        if self._beaten(bound):
            record["verdict"] = "pruned"
            return None, None, None
        return sched, bound, {mode: sched}

    def outcome(self):
        if self.incumbent is None:
            return SynthesisOutcome("unsat", stats=self.stats)
        r, v = self.incumbent
        return witness_outcome(self.fam, self.q, r, v, self.stats)
