"""Abstraction-refinement engine: verify the quotient MDP of a subfamily,
classify it wholesale when the bounds are conclusive, otherwise split along
the hole an inconsistent optimising scheduler disagrees on."""

from __future__ import annotations

from dataclasses import dataclass

from ..family import (ConsistencyVerdict, Family, Realisation, Subfamily,
                      enumerate_realisations, quotient_mdp, realise,
                      scheduler_consistency)
from ..model import check, compare, induced_chain, mdp_extremal
from .base import (EngineError, Stats, SynthesisOutcome, SynthesisQuery, Timer,
                   query_cost)


def initial_subfamily(fam: Family) -> Subfamily:
    """Fold single-hole constraints into the starting subfamily.

    Constraints over several holes stay out of the box: its quotient
    over-approximates the members that satisfy them, and the members
    themselves are filtered by every constraint.
    """
    remaining = [list(h.options) for h in fam.holes]
    names = [h.name for h in fam.holes]
    for c in fam.constraints:
        holes = c.holes()
        if len(holes) != 1:
            continue
        name = next(iter(holes))
        idx = names.index(name)
        allowed = [o for o in remaining[idx] if c.eval({name: o})]
        if not allowed:
            raise EngineError("constraints rule out every option of %s" % name)
        remaining[idx] = allowed
    return Subfamily(tuple(tuple(r) for r in remaining))


def split(sub: Subfamily, verdict: ConsistencyVerdict, fam: Family):
    """Split on the most-inconsistent hole: separate its most frequently
    chosen option from the rest of the remaining options."""
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
    """Partition `sub` around a classified realisation: pin the lowest hole
    with >= 2 remaining options to r's choice vs the rest."""
    for idx, (h, opts) in enumerate(zip(fam.holes, sub.remaining)):
        if len(opts) >= 2:
            pick = r[h.name]
            rest = tuple(o for o in opts if o != pick)
            return sub.replace(idx, (pick,)), sub.replace(idx, rest)
    return None


def _members(fam, sub, excluded):
    return [r for r in enumerate_realisations(fam, sub)
            if r.key(fam) not in excluded]


def _min_possible_cost(fam, sub, q):
    if (q.cost_model or fam.cost_model) != "optionsum":
        return None  # structural cost admits no cheap family-level bound
    total = 0
    for h, opts in zip(fam.holes, sub.remaining):
        total += min(h.costs[h.option_index(o)] for o in opts)
    return total


def cegar_solve(fam: Family, q: SynthesisQuery) -> SynthesisOutcome:
    if q.optimise_cost:
        raise EngineError("cegar does not support cost-optimal search; "
                          "use the enum engine")
    stats = Stats()
    timer = Timer().__enter__()
    try:
        if q.kind in ("feasible", "partition"):
            return _threshold(fam, q, stats)
        return _optimise(fam, q, stats)
    finally:
        timer.stamp(stats)


def _classify_single(fam, q, r, stats):
    mc = realise(fam, r)
    spec = q.spec
    sat, value = check(mc, spec, q.tolerance)
    stats.candidates += 1
    stats.checks += 1
    if sat and q.budget is not None:
        sat = query_cost(fam, q, r) <= q.budget
    return sat, value


def _threshold(fam, q, stats):
    spec = q.spec
    lower_bound_spec = spec.op in (">=", ">")  # T needs the quotient min
    T, F = [], []
    worklist = [(initial_subfamily(fam), frozenset())]
    while worklist:
        sub, excluded = worklist.pop(0)
        members = _members(fam, sub, excluded)
        if not members:
            continue
        stats.iterations += 1
        if len(members) == 1:
            sat, _ = _classify_single(fam, q, members[0], stats)
            (T if sat else F).append(members[0])
            stats.trace.append({"size": 1, "verdict": "direct", "sat": sat})
            if sat and q.kind == "feasible":
                return _feasible_outcome(fam, q, members[0], stats)
            continue
        mdp, meta = quotient_mdp(fam, sub)
        vmin, smin = mdp_extremal(mdp, spec.goal, "min")
        vmax, smax = mdp_extremal(mdp, spec.goal, "max")
        stats.checks += 1
        record = {"size": len(members), "min": vmin, "max": vmax}
        # conclusive bounds classify the whole subfamily
        all_sat = compare(vmin, spec.op, spec.threshold, q.tolerance) \
            if lower_bound_spec else compare(vmax, spec.op, spec.threshold,
                                             q.tolerance)
        all_viol = not compare(vmax, spec.op, spec.threshold, q.tolerance) \
            if lower_bound_spec else not compare(vmin, spec.op, spec.threshold,
                                                 q.tolerance)
        if all_sat and q.budget is None:
            T.extend(members)
            record["verdict"] = "all-sat"
            stats.trace.append(record)
            if q.kind == "feasible":
                return _feasible_outcome(fam, q, members[0], stats)
            continue
        if all_viol:
            F.extend(members)
            record["verdict"] = "all-violate"
            stats.trace.append(record)
            continue
        if all_sat:  # budgeted: membership still needs per-realisation costs
            for r in members:
                ok = q.budget is None or query_cost(fam, q, r) <= q.budget
                (T if ok else F).append(r)
                if ok and q.kind == "feasible":
                    record["verdict"] = "all-sat"
                    stats.trace.append(record)
                    return _feasible_outcome(fam, q, r, stats)
            record["verdict"] = "all-sat"
            stats.trace.append(record)
            continue
        # inconclusive: analyse the scheduler on the side blocking the verdict
        sched = smin if lower_bound_spec else smax
        chain = induced_chain(mdp, sched)
        verdict = scheduler_consistency(meta, sched, chain.reachable())
        if verdict.consistent and verdict.realisation.key(fam) not in excluded \
                and sub.contains(fam, verdict.realisation) \
                and fam.satisfies_constraints(verdict.realisation.assignment):
            r = verdict.realisation
            sat, _ = _classify_single(fam, q, r, stats)
            (T if sat else F).append(r)
            record["verdict"] = "consistent"
            record["realisation"] = r.as_dict()
            if sat and q.kind == "feasible":
                stats.trace.append(record)
                return _feasible_outcome(fam, q, r, stats)
            excluded = excluded | {r.key(fam)}
            parts = _split_off(sub, r, fam)
            record["split"] = True
            if parts:
                worklist.extend((p, excluded) for p in parts)
        elif verdict.consistent:
            parts = _split_off(sub, verdict.realisation, fam)
            record["verdict"] = "consistent-stale"
            record["split"] = parts is not None
            if parts:
                worklist.extend((p, excluded) for p in parts)
        else:
            a, b = split(sub, verdict, fam)
            record["verdict"] = "inconsistent"
            record["inconsistent"] = {h: sorted(v)
                                      for h, v in verdict.inconsistent.items()}
            record["split_hole"] = _split_hole_name(fam, sub, a)
            worklist.extend(((a, excluded), (b, excluded)))
        stats.trace.append(record)
    if q.kind == "feasible":
        return SynthesisOutcome("unsat", stats=stats)
    return SynthesisOutcome("partition", T=_lex_sorted(fam, T),
                            F=_lex_sorted(fam, F), stats=stats)


def _split_hole_name(fam, sub, pinned):
    for h, before, after in zip(fam.holes, sub.remaining, pinned.remaining):
        if before != after:
            return h.name
    return None


def _lex_sorted(fam, realisations):
    order = {h.name: {o: i for i, o in enumerate(h.options)} for h in fam.holes}
    return sorted(realisations,
                  key=lambda r: tuple(order[h.name][r[h.name]]
                                      for h in fam.holes))


def _feasible_outcome(fam, q, r, stats):
    mc = realise(fam, r)
    _, value = check(mc, q.spec, q.tolerance)
    c = query_cost(fam, q, r) if q.budget is not None else None
    return SynthesisOutcome("witness", witness=r, value=value, cost=c,
                            stats=stats)


def _optimise(fam, q, stats):
    maximise = q.kind == "max"
    eps = q.epsilon or 0.0
    incumbent = None  # (realisation, value, cost)
    # worklist entries carry the parent quotient bound for eps termination
    worklist = [(initial_subfamily(fam), frozenset(), None)]
    mode = "max" if maximise else "min"

    def candidate_value(r):
        mc = realise(fam, r)
        stats.candidates += 1
        stats.checks += 1
        from ..model import reach_probability
        return float(reach_probability(mc, q.goal)[mc.init])

    def improves(v):
        if incumbent is None:
            return True
        return v > incumbent[1] + 1e-12 if maximise else v < incumbent[1] - 1e-12

    def admissible(r):
        return q.budget is None or query_cost(fam, q, r) <= q.budget

    def prunable(bound):
        if incumbent is None or bound is None:
            return False
        if maximise:
            return bound <= incumbent[1] + 1e-9
        return bound >= incumbent[1] - 1e-9

    while worklist:
        if incumbent is not None and eps > 0.0:
            bounds = [b for _, _, b in worklist if b is not None]
            if bounds:
                best_remaining = max(bounds) if maximise else min(bounds)
                done = incumbent[1] >= (1.0 - eps) * best_remaining - 1e-12 \
                    if maximise else \
                    incumbent[1] <= best_remaining / (1.0 - eps) + 1e-12
                if done:
                    break
        sub, excluded, parent_bound = worklist.pop(0)
        members = _members(fam, sub, excluded)
        if not members:
            continue
        if prunable(parent_bound):
            continue
        mincost = _min_possible_cost(fam, sub, q)
        if q.budget is not None and mincost is not None and mincost > q.budget:
            continue
        stats.iterations += 1
        if len(members) == 1:
            r = members[0]
            if admissible(r):
                v = candidate_value(r)
                if improves(v):
                    incumbent = (r, v, query_cost(fam, q, r)
                                 if q.budget is not None else None)
            continue
        mdp, meta = quotient_mdp(fam, sub)
        bound, sched = mdp_extremal(mdp, q.goal, mode)
        stats.checks += 1
        rec = {"size": len(members), "bound": bound, "mode": mode}
        stats.trace.append(rec)
        if prunable(bound):
            rec["verdict"] = "pruned"
            continue
        chain = induced_chain(mdp, sched)
        verdict = scheduler_consistency(meta, sched, chain.reachable())
        if verdict.consistent and sub.contains(fam, verdict.realisation) \
                and fam.satisfies_constraints(verdict.realisation.assignment):
            r = verdict.realisation
            rec["verdict"] = "consistent"
            rec["realisation"] = r.as_dict()
            if r.key(fam) not in excluded and admissible(r):
                v = candidate_value(r)
                if improves(v):
                    incumbent = (r, v, query_cost(fam, q, r)
                                 if q.budget is not None else None)
            excluded = excluded | {r.key(fam)}
            parts = _split_off(sub, r, fam)
            rec["split"] = parts is not None
            if parts:
                worklist.extend((p, excluded, bound) for p in parts)
        elif verdict.consistent:
            # the scheduler's realisation is no member: split around it
            parts = _split_off(sub, verdict.realisation, fam)
            rec["verdict"] = "consistent-stale"
            rec["split"] = parts is not None
            if parts:
                worklist.extend((p, excluded, bound) for p in parts)
        else:
            a, b = split(sub, verdict, fam)
            rec["verdict"] = "inconsistent"
            rec["inconsistent"] = {h: sorted(v)
                                   for h, v in verdict.inconsistent.items()}
            rec["split"] = True
            worklist.extend(((a, excluded, bound), (b, excluded, bound)))
    if incumbent is None:
        return SynthesisOutcome("unsat", stats=stats)
    r, v, c = incumbent
    return SynthesisOutcome("witness", witness=r, value=v, cost=c, stats=stats)
