"""Explicit-state Markov chains and MDPs with a reachability model checker.

All types are immutable after construction; every operation is a pure
function of its inputs.  Linear systems of up to DENSE_SOLVE_LIMIT unknowns
are solved with numpy alone; scipy, whose sparse LU solves the larger ones,
is imported by the first such solve, so a process that makes none never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping

import numpy as np

PROB_SUM_TOL = 1e-9
COMPARISON_TOL = 1e-6  # default tolerance for threshold comparisons
VI_CONVERGENCE = 1e-10  # certified gap at which interval iteration stops
VI_MAX_SWEEPS = 10 ** 6
# unknowns up to which dense beats sparse algebra; a larger system is solved
# by scipy's sparse LU, and the first such solve imports scipy
DENSE_SOLVE_LIMIT = 128

OPS = ("<", "<=", ">=", ">")


class ModelError(ValueError):
    """Malformed chain, MDP, scheduler or specification."""


_set = object.__setattr__  # writes a field of a frozen instance


@dataclass(frozen=True, slots=True, init=False)
class Distribution:
    """Sparse probability distribution over state indices, built from its
    (state, probability) entries.  It stores the successor states and their
    probabilities as two parallel tuples, and the least and greatest
    successor, which a model range-checks in place of every entry; a state
    must be an integer, a probability a number in (0, 1], not a bool, and
    the probabilities must sum to 1.  `entries` is a view of the pairs."""

    states: tuple  # tuple[int, ...], no state twice
    probs: tuple  # tuple[float, ...], parallel to states
    lo: int = field(compare=False, repr=False)
    hi: int = field(compare=False, repr=False)

    def __init__(self, entries):
        pairs = {}
        total = 0.0
        for s, p in entries:
            # the exact-type tests only skip the slower ones for plain values
            if type(s) is not int and (isinstance(s, bool) or
                                       not isinstance(s, np.integer)):
                raise ModelError("state %r in distribution is not an integer"
                                 % (s,))
            if s in pairs:
                raise ModelError("duplicate state %d in distribution" % s)
            if type(p) is not float and isinstance(p, (bool, np.bool_)) \
                    or not 0.0 < p <= 1.0:
                raise ModelError("probability %r out of (0, 1]" % (p,))
            pairs[s] = p
            total += p
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ModelError("distribution sums to %r, not 1" % total)
        _set(self, "states", tuple(pairs))
        _set(self, "probs", tuple(pairs.values()))
        _set(self, "lo", min(pairs))
        _set(self, "hi", max(pairs))

    @property
    def entries(self) -> tuple:
        """The (state, probability) pairs, in order."""
        return tuple(zip(self.states, self.probs))

    @staticmethod
    def from_pairs(pairs: Iterable) -> "Distribution":
        """Build a distribution, merging duplicate successor states."""
        merged: dict = {}
        for s, p in pairs:
            merged[s] = merged[s] + p if s in merged else float(p)
        return Distribution(tuple(sorted(merged.items())))

    @staticmethod
    def dirac(state: int) -> "Distribution":
        return Distribution(((state, 1.0),))

    def support(self):
        return list(self.states)


def _out_of_range(s, dist, n):
    """Refuse state `s`'s distribution, which has a successor outside
    [0, n), naming its first such successor."""
    t = next(t for t in dist.states if not 0 <= t < n)
    raise ModelError("state %d has successor %d outside S" % (s, t))


@dataclass(frozen=True)
class MarkovChain:
    """Finite MC with a contiguous state index set and one distribution per
    state.  Each distribution is range-checked by its least and greatest
    successor; the walk over their successor tuples lists each state's
    predecessors, in state order, as `preds`; it is not a compared field."""

    n_states: int
    init: int
    transitions: tuple  # tuple[Distribution, ...], one per state

    def __post_init__(self):
        if len(self.transitions) != self.n_states:
            raise ModelError("expected %d distributions, got %d"
                             % (self.n_states, len(self.transitions)))
        if not (0 <= self.init < self.n_states):
            raise ModelError("initial state %d out of range" % self.init)
        n = self.n_states
        preds = [[] for _ in range(n)]
        for s, dist in enumerate(self.transitions):
            if dist.lo < 0 or dist.hi >= n:
                _out_of_range(s, dist, n)
            for t in dist.states:
                preds[t].append(s)
        object.__setattr__(self, "preds", preds)

    def reachable(self) -> set:
        """States reachable from the initial state."""
        seen = {self.init}
        stack = [self.init]
        while stack:
            s = stack.pop()
            for t in self.transitions[s].states:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def dump(self) -> str:
        """Line-oriented text dump: ``state i: p1 -> j1, p2 -> j2``."""
        lines = []
        for s, dist in enumerate(self.transitions):
            body = ", ".join("%g -> %d" % (p, t) for t, p in dist.entries)
            lines.append("state %d: %s" % (s, body))
        return "\n".join(lines)


@dataclass(frozen=True)
class Mdp:
    """Finite MDP; every state carries a nonempty list of labeled distributions.

    The walk that checks the actions also compiles the MDP into a
    row-grouped choice matrix, none of it a compared field: one CSR row
    (`indptr`, `indices`, `data`) per action, labelled `labels[r]`, the rows
    of state s at first[s]:first[s + 1], `state[r]` owning row r.  For the
    graph searches, `row_preds[t]` lists in row order the pairs
    (r, state[r]) of the rows r that have t as a successor.  For policy
    iteration, `leave` is each entry's probability unless it is its row's
    self-loop, and `exits` each row's sum of them, 1 where that is 0 and
    `movable` false."""

    n_states: int
    init: int
    actions: tuple  # tuple[tuple[(label, Distribution), ...], ...]

    def __post_init__(self):
        n = self.n_states
        if len(self.actions) != n:
            raise ModelError("expected %d action lists, got %d"
                             % (n, len(self.actions)))
        if not (0 <= self.init < n):
            raise ModelError("initial state %d out of range" % self.init)
        labels, dists, first = [], [], [0]
        row_preds = [[] for _ in range(n)]
        for s, acts in enumerate(self.actions):
            if not acts:
                raise ModelError("state %d has no actions" % s)
            own = [a for a, _ in acts]
            if len(set(own)) != len(own):
                raise ModelError("state %d has duplicate action labels" % s)
            labels += own
            for _, dist in acts:
                edge = (len(dists), s)
                dists.append(dist)
                if dist.lo < 0 or dist.hi >= n:
                    _out_of_range(s, dist, n)
                for t in dist.states:
                    row_preds[t].append(edge)
            first.append(len(dists))
        indptr, indices, data = _csr_rows(dists)
        first = np.array(first, dtype=np.intp)
        state = np.repeat(np.arange(n), np.diff(first))
        leave = np.where(indices == np.repeat(state, np.diff(indptr)), 0.0,
                         data)
        exits = np.add.reduceat(leave, indptr[:-1])
        movable = exits > 0.0
        exits[~movable] = 1.0
        vars(self).update(labels=labels, indptr=indptr, indices=indices,
                          data=data, first=first, state=state,
                          row_preds=row_preds, leave=leave, exits=exits,
                          movable=movable)

    def all_succ(self, mask):
        """Per row: every successor lies in `mask`."""
        return np.logical_and.reduceat(mask[self.indices], self.indptr[:-1])

    def some_row(self, rows):
        """Per state: some of its rows is set in `rows`."""
        return np.logical_or.reduceat(rows, self.first[:-1])

    def first_row(self, rows):
        """Per state: the first of its rows set in `rows` (len(rows) if none)."""
        return np.minimum.reduceat(
            np.where(rows, np.arange(len(rows)), len(rows)), self.first[:-1])

    def dist(self, s: int, label) -> Distribution:
        for a, dist in self.actions[s]:
            if a == label:
                return dist
        raise ModelError("state %d has no action %r" % (s, label))


@dataclass(frozen=True)
class Specification:
    """Reachability specification: probability of eventually hitting `goal`
    compared against `threshold` with `op`."""

    goal: frozenset
    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in OPS:
            raise ModelError("unknown comparison operator %r" % self.op)
        if not self.goal:
            raise ModelError("goal set is empty")
        if not (0.0 <= self.threshold <= 1.0):
            raise ModelError("threshold %r outside [0, 1]" % self.threshold)


@dataclass(frozen=True)
class MemorylessScheduler:
    """Maps state index to the label of the chosen action."""

    choice: Mapping

    def __getitem__(self, s):
        return self.choice[s]


def compare(value: float, op: str, threshold: float,
            tol: float = COMPARISON_TOL) -> bool:
    """Threshold comparison with a symmetric tolerance band.

    ``>= t`` accepts value >= t - tol, ``> t`` demands value > t + tol;
    the <=/< cases mirror this.
    """
    if op == ">=":
        return value >= threshold - tol
    if op == ">":
        return value > threshold + tol
    if op == "<=":
        return value <= threshold + tol
    if op == "<":
        return value < threshold - tol
    raise ModelError("unknown comparison operator %r" % op)


# ---------------------------------------------------------------------------
# qualitative precomputation


def _backward_reach(predecessors, seeds, blocked=frozenset()):
    """States with a path to `seeds` whose intermediate states avoid `blocked`."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        t = stack.pop()
        for s in predecessors[t]:
            if s not in seen and s not in blocked:
                seen.add(s)
                stack.append(s)
    return seen


def _prob01(n_states, preds, goal, critical=None, succ=None):
    """Exact prob-0 and prob-1 state sets for reaching `goal` in the chain
    with predecessor lists `preds`.  Given a `critical` set and successor
    lists `succ`, every state outside it is made absorbing as `sub_mc`
    does: no path passes through an outside state."""
    states = set(range(n_states))
    outside = frozenset() if critical is None else states.difference(critical)
    reach = _backward_reach(preds, goal, blocked=outside)
    prob0 = states - reach
    # value < 1 iff the state can reach prob0 without passing through goal
    if critical is None:
        bad = _backward_reach(preds, prob0, blocked=goal)
    else:
        # an outside state lies in goal or in prob0, so such a path runs
        # through critical states and leaves them by a step into prob0
        bad = _backward_reach(
            preds, [s for s in critical
                    if s not in goal and not reach.issuperset(succ[s])],
            blocked=outside | goal)
    return prob0, reach - bad


def prob01_states(mc: MarkovChain, goal: frozenset):
    """Exact prob-0 and prob-1 state sets for reaching `goal` in an MC."""
    return _prob01(mc.n_states, mc.preds, goal)


def _goal_states(goal, n_states) -> frozenset:
    """`goal` as a frozenset, refused if some state lies outside S."""
    goal = frozenset(goal)
    for g in goal:
        if not (0 <= g < n_states):
            raise ModelError("goal state %d outside S" % g)
    return goal


def _csr_rows(dists):
    """Flat CSR arrays (indptr, indices, data), one row per distribution."""
    indptr = np.fromiter(accumulate((len(d.states) for d in dists),
                                    initial=0), np.intp, len(dists) + 1)
    return (indptr, np.array([t for d in dists for t in d.states], np.intp),
            np.array([p for d in dists for p in d.probs], float))


def _entries(indptr, rows):
    """The entries of the CSR rows `rows`, in order: per entry, the position
    of its row in `rows` and its index into the CSR arrays."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    src = np.repeat(np.arange(len(rows)), counts)
    entry = np.arange(len(src)) + np.repeat(starts - np.cumsum(counts) + counts,
                                            counts)
    return src, entry


def _system(indptr, indices, data, rows, states, known):
    """The fixed point x = P x + b over `states`, each taking its row of
    `rows`: P's entries among `states` as (row, col, val) triplets, each
    state's exit mass (probability of leaving it, self-loop excluded) and b,
    the one-step value from outside `states` given by `known`."""
    n = len(states)
    local = np.full(len(known), -1, dtype=np.intp)
    local[states] = np.arange(n)
    src, entry = _entries(indptr, rows)
    tgt, p = indices[entry], data[entry]
    col = local[tgt]
    exits = np.bincount(src, weights=np.where(col == src, 0.0, p), minlength=n)
    b = np.bincount(src, weights=p * known[tgt], minlength=n)
    inner = col >= 0
    return src[inner], col[inner], p[inner], exits, b


def _linear_solve(rows, cols, vals, exits, b):
    """Solve (I - P) x = b exactly: with numpy up to DENSE_SOLVE_LIMIT
    unknowns, above it by scipy's sparse LU, the only code that imports
    scipy.  The diagonal of I - P is each state's exit mass, not 1 - P(s,s):
    with a self-loop of 1 - 2e-12 the subtraction would lose five digits of
    a 2e-12 exit.  Exits too small to register leave I - P singular in
    floating point; that raises ModelError."""
    n = len(exits)
    off = rows != cols
    diag = np.arange(n)
    try:
        if n <= DENSE_SOLVE_LIMIT:
            A = np.zeros((n, n))
            A[rows[off], cols[off]] = -vals[off]
            A[diag, diag] = exits
            x = np.linalg.solve(A, b)
        else:
            import scipy.sparse as sp
            from scipy.sparse.linalg import splu
            A = sp.csr_matrix((np.concatenate([-vals[off], exits]),
                               (np.concatenate([rows[off], diag]),
                                np.concatenate([cols[off], diag]))),
                              shape=(n, n))
            x = splu(A.tocsc()).solve(b)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise ModelError("linear solve failed: %s" % exc)
    if not np.all(np.isfinite(x)):
        raise ModelError("linear solve failed: singular matrix")
    return x


def _interval_iteration(rows, cols, vals, b):
    """Iterate x = P x + b from 0 and from 1 until the certified gap between
    the two bounds is below VI_CONVERGENCE."""
    n = len(b)
    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(VI_MAX_SWEEPS):
        lo = np.bincount(rows, weights=vals * lo[cols], minlength=n) + b
        hi = np.bincount(rows, weights=vals * hi[cols], minlength=n) + b
        if np.max(hi - lo) < VI_CONVERGENCE:
            return (lo + hi) / 2.0
    raise ModelError("interval iteration left a gap of %g after %d sweeps"
                     % (np.max(hi - lo), VI_MAX_SWEEPS))


def _values(n_states, prob0, prob1, rows_of, method="auto"):
    """Reachability values of every state: 0 on `prob0`, 1 on `prob1`, and
    on the other states, sorted, the solution of x = P x + b, their rows
    being those that `rows_of(unknown)` returns as (indptr, indices, data,
    rows) of CSR arrays.  Method "vi" solves by interval iteration."""
    x = np.zeros(n_states)
    x[list(prob1)] = 1.0
    if len(prob0) + len(prob1) == n_states:
        return x
    unknown = np.array(sorted(set(range(n_states)).difference(prob0, prob1)),
                       dtype=np.intp)
    if len(unknown):
        rows, cols, vals, exits, b = _system(*rows_of(unknown), unknown, x)
        sol = (_interval_iteration(rows, cols, vals, b) if method == "vi"
               else _linear_solve(rows, cols, vals, exits, b))
        x[unknown] = sol.clip(0.0, 1.0)
    return x


def reach_probability(mc: MarkovChain, goal, method: str = "auto") -> np.ndarray:
    """Probability of eventually reaching `goal`, for every state.

    Qualitative 0/1 states are fixed graph-theoretically; the rest solve the
    linear fixed point x_s = sum_t P(s,t) x_t.  Methods "auto" and "linear"
    solve it directly; "vi" runs interval iteration and raises ModelError if
    its bounds do not meet within VI_MAX_SWEEPS.  Only the rows of the
    states left unknown are compiled into CSR arrays.
    """
    if method not in ("auto", "linear", "vi"):
        raise ModelError("unknown method %r" % method)
    goal = _goal_states(goal, mc.n_states)
    prob0, prob1 = prob01_states(mc, goal)
    return _values(mc.n_states, prob0, prob1, lambda unknown: (
        *_csr_rows([mc.transitions[s] for s in unknown]),
        np.arange(len(unknown))), method)


class ChainMatrix:
    """A chain compiled once for the valuations of one conflict's critical
    prefixes: one CSR row per state and each state's successor list, which
    also gives the breadth-first ranking of the prefixes; the predecessor
    lists are the chain's own."""

    def __init__(self, mc: MarkovChain):
        self.mc = mc
        self.indptr, self.indices, self.data = _csr_rows(mc.transitions)
        self.succ = [d.support() for d in mc.transitions]
        self.preds = mc.preds

    def sub_value(self, critical, goal) -> float:
        """The value at the initial state of `check(sub_mc(mc, critical),
        spec)` for a spec on `goal`, without building the sub-MC: the same
        qualitative pass, with the states outside `critical` absorbing, and
        the same solve, on this chain's CSR rows of the unknown states."""
        n, init = self.mc.n_states, self.mc.init
        prob0, prob1 = _prob01(n, self.preds, frozenset(goal), critical,
                               self.succ)
        if init in prob0 or init in prob1:
            return float(init in prob1)
        return float(_values(n, prob0, prob1, lambda unknown: (
            self.indptr, self.indices, self.data, unknown))[init])


def check(mc: MarkovChain, spec: Specification, tol: float = COMPARISON_TOL):
    """Model-check a reachability specification; returns (verdict, value at init)."""
    value = float(reach_probability(mc, spec.goal)[mc.init])
    return compare(value, spec.op, spec.threshold, tol), value


def sub_mc(mc: MarkovChain, critical) -> MarkovChain:
    """Sub-MC for a critical state set containing the initial state.

    The original index space is kept; every state outside the critical set is
    made absorbing via a self-loop.
    """
    critical = set(critical)
    if mc.init not in critical:
        raise ModelError("critical set must contain the initial state")
    transitions = []
    for s in range(mc.n_states):
        if s in critical:
            transitions.append(mc.transitions[s])
        else:
            transitions.append(Distribution.dirac(s))
    return MarkovChain(mc.n_states, mc.init, tuple(transitions))


# ---------------------------------------------------------------------------
# MDP analysis


def _attract(mdp: Mdp, seeds, rows_ok, policy=None):
    """States from which some path of `rows_ok` rows reaches `seeds`: a
    backward search, frontier by frontier, over the predecessor rows, that
    looks at each (row, state) edge once.  With `policy`, each added state
    gets its lowest `rows_ok` row into the frontier it joins from; no lower
    row of it reaches an earlier frontier, or it would have joined then."""
    reached = seeds.tolist()
    ok = rows_ok.tolist() if isinstance(rows_ok, np.ndarray) \
        else [rows_ok] * len(mdp.labels)
    row_preds = mdp.row_preds
    frontier = np.flatnonzero(seeds).tolist()
    rows = {}  # each added state's row
    while frontier:
        joined = {}
        for t in frontier:
            for r, s in row_preds[t]:
                if ok[r] and not reached[s] and r < joined.get(s, r + 1):
                    joined[s] = r
        for s in joined:
            reached[s] = True
        rows.update(joined)
        frontier = joined
    if policy is not None and rows:
        policy[list(rows)] = list(rows.values())
    return np.array(reached)


def _prob1e(mdp: Mdp, goal, stay, policy):
    """States where some scheduler reaches `goal` almost surely; `stay`
    holds the states that can reach it at all.  Each round's attractor
    writes `policy`, so the last one leaves every returned state outside
    `goal` a row that stays in the set and moves towards `goal`."""
    while True:
        nxt = _attract(mdp, goal, mdp.all_succ(stay), policy)
        if np.array_equal(nxt, stay):
            return stay
        stay = nxt


def _prob0e(mdp: Mdp, goal):
    """States where some scheduler avoids `goal` surely."""
    avoid = ~goal
    while True:
        nxt = avoid & mdp.some_row(mdp.all_succ(avoid))
        if np.array_equal(nxt, avoid):
            return avoid
        avoid = nxt


def _evaluate(mdp: Mdp, rows, states, known):
    """Values of the policy `rows` (one row per state of `states`), which
    must leave `states` almost surely; `known` fixes the other states."""
    sys_rows, cols, vals, exits, b = _system(
        mdp.indptr, mdp.indices, mdp.data, rows, states, known)
    return np.clip(_linear_solve(sys_rows, cols, vals, exits, b), 0.0, 1.0)


def _keep_proper(mdp: Mdp, nxt, policy, unknown, gain):
    """Undo switches of `nxt` away from the proper policy `policy`, the
    smallest `gain` first, until every unknown state leaves the unknown
    states almost surely.  A strict gain never closes a cycle inside them;
    a gain at rounding level on a tie can."""
    states = np.flatnonzero(unknown)
    while True:
        chosen = np.zeros(len(mdp.labels), dtype=bool)
        chosen[nxt[states]] = True
        stuck = unknown & ~_attract(mdp, ~unknown, chosen)
        if not stuck.any():
            return
        undo = np.flatnonzero(stuck & (nxt != policy))
        s = undo[np.argmin(gain[undo])]
        nxt[s] = policy[s]


def _policy_iteration(mdp: Mdp, known, unknown, mode, policy):
    """Optimal values on the `unknown` states, `known` fixing the others,
    and `policy` (one row per state) improved there until it attains them;
    its rows for the other states are kept.

    Every policy evaluated is proper on `unknown`, so each evaluation is one
    exact linear solve.  For max the first policy moves every unknown state
    closer to a value-1 state; for min every policy is proper once the
    states that can avoid the goal surely are known.  A row is switched on
    any gain over the state's current row, however small: around a cycle
    whose exits are 1e-12 a one-step gain of 4e-13 can be worth 0.2 in
    value.  For max, switches that would keep a state inside `unknown` for
    ever are undone, and no policy is evaluated twice, so the loop ends.
    """
    states = np.flatnonzero(unknown)
    maximise = mode == "max"
    if maximise:
        _attract(mdp, known == 1.0, unknown[mdp.state], policy)
    x = known.copy()
    seen = {policy[states].tobytes()}
    while True:
        x[states] = _evaluate(mdp, policy[states], states, known)
        # the value each row gives its state with the self-loop unrolled
        onward = np.add.reduceat(mdp.leave * x[mdp.indices], mdp.indptr[:-1])
        unrolled = np.where(mdp.movable, onward / mdp.exits, x[mdp.state])
        if maximise:
            best = np.maximum.reduceat(unrolled, mdp.first[:-1])
            gain = best - unrolled[policy]
        else:
            best = np.minimum.reduceat(unrolled, mdp.first[:-1])
            gain = unrolled[policy] - best
        switch = unknown & (gain > 0.0)
        if not switch.any():
            return x, policy
        nxt = policy.copy()
        nxt[switch] = mdp.first_row(unrolled == best[mdp.state])[switch]
        if maximise:
            _keep_proper(mdp, nxt, policy, unknown, gain)
        key = nxt[states].tobytes()
        if key in seen:  # rounding made a gain reappear: nothing left to win
            return x, policy
        seen.add(key)
        policy = nxt


def mdp_extremal(mdp: Mdp, goal, mode: str):
    """Optimal reachability probability at the initial state plus a
    memoryless scheduler that attains the optimal value from every state.

    Qualitative prob-0/prob-1 sets are graph fixpoints on the MDP's
    row-grouped choice matrix, and their states get their
    rows on the way: for max a prob-1 state takes a row that stays in prob-1
    and moves towards the goal, for min a prob-0 state its first row that
    stays in prob-0.  Policy iteration computes the remaining values
    exactly, one linear solve per policy, and its optimal policy is the
    scheduler there.
    """
    goal = _goal_states(goal, mdp.n_states)
    if mode not in ("min", "max"):
        raise ModelError("mode must be 'min' or 'max'")
    is_goal = np.zeros(mdp.n_states, dtype=bool)
    is_goal[list(goal)] = True
    policy = mdp.first[:-1].copy()
    if mode == "max":
        reach = _attract(mdp, is_goal, True)
        prob0 = ~reach
        prob1 = _prob1e(mdp, is_goal, reach, policy)
    else:
        prob0 = _prob0e(mdp, is_goal)
        prob1 = ~_attract(mdp, prob0, ~is_goal[mdp.state])
        policy[prob0] = mdp.first_row(mdp.all_succ(prob0))[prob0]
    x = prob1.astype(float)
    unknown = ~(prob0 | prob1)
    if unknown.any():
        x, policy = _policy_iteration(mdp, x, unknown, mode, policy)
    choice = {s: mdp.labels[r] for s, r in enumerate(policy.tolist())}
    return float(x[mdp.init]), MemorylessScheduler(choice)


def induced_chain(mdp: Mdp, sched: MemorylessScheduler) -> MarkovChain:
    """MC obtained by resolving every choice with a memoryless scheduler.
    A state the scheduler leaves out takes its first action; that is refused
    where the chain reaches it, so the chain is walked only when the
    scheduler leaves some state out."""
    choice = sched.choice
    mc = MarkovChain(mdp.n_states, mdp.init, tuple(
        mdp.dist(s, choice[s]) if s in choice else acts[0][1]
        for s, acts in enumerate(mdp.actions)))
    missing = set(range(mdp.n_states)).difference(choice)
    if missing:
        missing &= mc.reachable()
        if missing:
            raise ModelError("scheduler has no choice for reachable state %d"
                             % min(missing))
    return mc
