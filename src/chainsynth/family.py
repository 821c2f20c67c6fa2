"""Families of Markov chains: holes, realisations, costs, quotient MDPs.

A family fixes a shared state space and leaves some transition targets open;
each target either points at a fixed state or resolves through one or more
holes via a successor table, compiled once into per-state rows.  A
realisation (total hole assignment) selects one row per state: a Markov chain
over the same index space, unreachable states kept; a quotient MDP takes
every row a subfamily allows.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Optional

from .model import (Distribution, MarkovChain, Mdp, MemorylessScheduler,
                    PROB_SUM_TOL)

COST_MODELS = ("structural", "optionsum")


class FamilyError(ValueError):
    pass


def _is_index(x, bound=math.inf) -> bool:
    """Whether `x` is an int, not a bool, in [0, bound)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < bound


@dataclass(frozen=True)
class Hole:
    """A discrete parameter: an ordered list of options with optional costs."""

    name: str
    options: tuple  # tuple[str, ...]
    costs: tuple = None  # tuple[int, ...], parallel to options

    def __post_init__(self):
        if not self.options:
            raise FamilyError("hole %s has no options" % self.name)
        if len(set(self.options)) != len(self.options):
            raise FamilyError("hole %s has duplicate option labels" % self.name)
        if self.costs is None:
            object.__setattr__(self, "costs", tuple(0 for _ in self.options))
        elif len(self.costs) != len(self.options):
            raise FamilyError("hole %s: costs do not match options" % self.name)
        elif not all(map(_is_index, self.costs)):
            raise FamilyError("hole %s: option costs must be natural numbers"
                              % self.name)

    def option_index(self, label: str) -> int:
        try:
            return self.options.index(label)
        except ValueError:
            raise FamilyError("hole %s has no option %r" % (self.name, label))


@dataclass(frozen=True)
class Fixed:
    """Transition target pinned to a concrete state."""

    state: int

    def holes(self):
        return ()


@dataclass(frozen=True)
class HoleRef:
    """Transition target resolved through holes.

    `table` maps a tuple of option labels (one per hole in `hole_names`,
    in order) to a successor state.  Single-hole targets are the common
    case; multi-hole targets arise from sketch updates that write several
    hole expressions in one branch.
    """

    hole_names: tuple  # tuple[str, ...]
    table: Mapping  # tuple[option, ...] -> state

    def holes(self):
        return self.hole_names

    def resolve(self, assignment: Mapping) -> int:
        key = tuple(assignment[h] for h in self.hole_names)
        return self.table[key]

    @staticmethod
    def single(hole: str, table: Mapping) -> "HoleRef":
        return HoleRef((hole,), {(o,): t for o, t in table.items()})


@dataclass(frozen=True)
class Realisation:
    """Total assignment hole name -> option label."""

    assignment: Mapping

    def __getitem__(self, hole):
        return self.assignment[hole]

    def key(self, fam: "Family"):
        return fam.key_of(self.assignment)

    def as_dict(self):
        return dict(self.assignment)


StateRows = namedtuple("StateRows", "holes dists")


def _key_getter(names: tuple):
    """A function from an assignment to the tuple of its options for
    `names`, in order."""
    if len(names) == 1:
        name, = names
        return lambda a: (a[name],)
    return itemgetter(*names) if names else lambda a: ()


@dataclass(frozen=True)
class Family:
    n_states: int
    init: int
    holes: tuple  # tuple[Hole, ...]
    transitions: tuple  # per state: tuple[(prob, Fixed|HoleRef), ...]
    constraints: tuple = ()
    cost_model: str = "structural"  # one of COST_MODELS
    # present for sketch-derived families: variable names and per-state values
    variables: Optional[tuple] = None
    valuations: Optional[tuple] = None

    def __post_init__(self):
        if len(self.transitions) != self.n_states:
            raise FamilyError("expected %d transition rows" % self.n_states)
        by_name = {h.name: h for h in self.holes}
        if len(by_name) != len(self.holes):
            raise FamilyError("duplicate hole names")
        if self.cost_model not in COST_MODELS:
            raise FamilyError("unknown cost model %r" % self.cost_model)
        if not _is_index(self.init, self.n_states):
            raise FamilyError("initial state %r outside S" % (self.init,))
        for s, row in enumerate(self.transitions):
            total = sum(p for p, _ in row)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise FamilyError("state %d probabilities sum to %r" % (s, total))
            for p, tgt in row:
                if isinstance(p, bool) or not 0.0 < p <= 1.0:  # nan too
                    raise FamilyError("state %d has branch probability %r "
                                      "outside (0, 1]" % (s, p))
                if isinstance(tgt, Fixed):
                    self._check_state(tgt.state, s)
                else:
                    opts = [by_name[h].options for h in tgt.hole_names
                            if h in by_name]
                    if len(opts) != len(tgt.hole_names):
                        raise FamilyError("state %d references unknown hole" % s)
                    if len(tgt.table) > math.prod(map(len, opts)):
                        raise FamilyError("state %d: successor table has keys "
                                          "that name no option combination"
                                          % s)
                    for combo in itertools.product(*opts):
                        if combo not in tgt.table:
                            raise FamilyError(
                                "state %d: successor table not total (%r missing)"
                                % (s, combo))
                        self._check_state(tgt.table[combo], s)
        for c in self.constraints:
            for atom in c.atoms():
                if atom.hole not in by_name:
                    raise FamilyError("constraint names unknown hole %r"
                                      % atom.hole)
                # raises FamilyError on an option the hole does not have
                by_name[atom.hole].option_index(atom.option)

    @cached_property
    def rows(self) -> tuple:
        """Per state, a `StateRows`: the holes its targets read, in
        declaration order, and a dict from each combination of their options
        to the distribution it selects; built on first use.  Merged branches
        to one successor add their probabilities in branch order.  A
        quotient takes these rows as they are; a member is read off the
        `template` compiled from them."""
        options = {h.name: h.options for h in self.holes}
        combos = {}  # states that read the same holes share the dict keys
        rows = []
        for row in self.transitions:
            used = {h for _, tgt in row for h in tgt.holes()}
            local = tuple(h for h in options if h in used)
            dists = {}
            for combo in combos.setdefault(local, list(itertools.product(
                    *(options[h] for h in local)))):
                choice = dict(zip(local, combo))
                dists[combo] = Distribution.from_pairs(
                    (tgt.state if isinstance(tgt, Fixed)
                     else tgt.resolve(choice), p) for p, tgt in row)
            rows.append(StateRows(local, dists))
        return tuple(rows)

    @cached_property
    def template(self) -> tuple:
        """The member form compiled from `rows` on first use: a list holding
        the distribution of every state whose row reads no hole, None for
        the others, and per state that reads holes (state, key getter,
        dists), the getter taking an assignment to the key of its option
        combination in the row's dists; states that read the same holes
        share one getter."""
        base, reads, getters = [], [], {}
        for s, row in enumerate(self.rows):
            base.append(None if row.holes else row.dists[()])
            if row.holes:
                if row.holes not in getters:
                    getters[row.holes] = _key_getter(row.holes)
                reads.append((s, getters[row.holes], row.dists))
        return base, tuple(reads)

    @cached_property
    def key_of(self):
        """Assignment -> its option tuple in hole declaration order, the
        member key of `Realisation.key`."""
        return _key_getter(tuple(h.name for h in self.holes))

    @cached_property
    def linked(self) -> tuple:
        """(holes, constraints): the indices of the holes that multi-hole
        constraints read, in declaration order, and those constraints."""
        constraints = tuple(c for c in self.constraints
                            if len({a.hole for a in c.atoms()}) > 1)
        names = {a.hole for c in constraints for a in c.atoms()}
        return tuple(i for i, h in enumerate(self.holes)
                     if h.name in names), constraints

    def _check_state(self, t, s):
        if not _is_index(t, self.n_states):
            raise FamilyError("state %d has successor %r outside S" % (s, t))

    def hole(self, name: str) -> Hole:
        for h in self.holes:
            if h.name == name:
                return h
        raise FamilyError("no hole named %r" % name)

    def size(self) -> int:
        n = 1
        for h in self.holes:
            n *= len(h.options)
        return n

    def satisfies_constraints(self, assignment: Mapping) -> bool:
        return all(c.eval(assignment) for c in self.constraints)


@dataclass(frozen=True)
class Subfamily:
    """Per-hole restriction to a subset of options (ordered).  Splits keep
    every subset nonempty; constraints can empty one, leaving no member."""

    remaining: tuple  # tuple[tuple[str, ...], ...], parallel to fam.holes

    @staticmethod
    def full(fam: Family) -> "Subfamily":
        return Subfamily(tuple(h.options for h in fam.holes))

    def replace(self, hole_idx: int, options) -> "Subfamily":
        options = tuple(options)
        if not options:
            raise FamilyError("subfamily restriction must be nonempty")
        rem = list(self.remaining)
        rem[hole_idx] = options
        return Subfamily(tuple(rem))


# ---------------------------------------------------------------------------
# operations


def realise(fam: Family, r: Realisation) -> MarkovChain:
    """Concrete MC induced by a total, constraint-satisfying assignment of
    the family's holes and no other: a copy of the family's `template`
    with the distribution each hole-reading state's options select."""
    a = r.assignment
    for h in fam.holes:
        if h.name not in a:
            raise FamilyError("assignment misses hole %s" % h.name)
        if a[h.name] not in h.options:
            raise FamilyError("hole %s has no option %r" % (h.name, a[h.name]))
    if len(a) != len(fam.holes):
        names = {h.name for h in fam.holes}
        raise FamilyError("assignment names unknown hole %r"
                          % next(h for h in a if h not in names))
    if not fam.satisfies_constraints(a):
        raise FamilyError("assignment violates family constraints")
    base, reads = fam.template
    dists = base.copy()
    for s, key, table in reads:
        dists[s] = table[key(a)]
    return MarkovChain(fam.n_states, fam.init, tuple(dists))


def enumerate_realisations(fam: Family, sub: Subfamily = None):
    """Constraint-satisfying realisations within `sub`, in lexicographic
    hole/option declaration order."""
    if sub is None:
        sub = Subfamily.full(fam)
    names = [h.name for h in fam.holes]
    for combo in itertools.product(*sub.remaining):
        assignment = dict(zip(names, combo))
        if fam.satisfies_constraints(assignment):
            yield Realisation(assignment)


def initial_subfamily(fam: Family) -> Subfamily:
    """Fold single-hole constraints into the starting subfamily.

    Constraints over several holes stay out of the box: its quotient
    over-approximates the members that satisfy them, and the members
    themselves are filtered by every constraint.  A hole left with no
    option leaves the subfamily without members.
    """
    remaining = [list(h.options) for h in fam.holes]
    names = [h.name for h in fam.holes]
    for c in fam.constraints:
        holes = {a.hole for a in c.atoms()}
        if len(holes) != 1:
            continue
        name = next(iter(holes))
        idx = names.index(name)
        remaining[idx] = [o for o in remaining[idx] if c.eval({name: o})]
    return Subfamily(tuple(tuple(r) for r in remaining))


def count_members(fam: Family, sub: Subfamily,
                  excluded: frozenset = frozenset()) -> int:
    """Members of `sub` outside `excluded`, counted without listing them:
    the product of the option counts of the holes no multi-hole constraint
    reads, times the combinations of the other holes that satisfy those
    constraints.  `sub` must satisfy the single-hole constraints, as
    `initial_subfamily` and its parts do; `excluded` holds members only."""
    idxs, constraints = fam.linked
    n = math.prod(len(opts) for i, opts in enumerate(sub.remaining)
                  if i not in idxs)
    if idxs and n:
        names = [fam.holes[i].name for i in idxs]
        n *= sum(all(c.eval(dict(zip(names, combo))) for c in constraints)
                 for combo in itertools.product(
                     *(sub.remaining[i] for i in idxs)))
    return n - sum(all(o in opts for o, opts in zip(key, sub.remaining))
                   for key in excluded)


def cost(fam: Family, r: Realisation, model: str = None) -> int:
    """Realisation cost under the family's (or an explicit) cost model."""
    model = model or fam.cost_model
    if model == "optionsum":
        return sum(h.costs[h.option_index(r[h.name])] for h in fam.holes)
    if model == "structural":
        mc = realise(fam, r)
        reachable = mc.reachable()
        edges = sum(len(mc.transitions[s].states) for s in reachable)
        return len(reachable) + edges
    raise FamilyError("unknown cost model %r" % model)


def quotient_mdp(fam: Family, sub: Subfamily = None) -> Mdp:
    """Quotient MDP forgetting which realisation a state belongs to.

    It lives on the family's own states and initial state.  Per state one
    action exists for every combination, in product order, of the remaining
    options of exactly the holes its row reads (`Family.rows`); the action
    is labelled with that option tuple, which keys its distribution in the
    row's `dists`.
    """
    if sub is None:
        sub = Subfamily.full(fam)
    remaining = {h.name: opts for h, opts in zip(fam.holes, sub.remaining)}
    combos = {}  # states that read the same holes share their combinations
    actions = []
    for row in fam.rows:
        if row.holes not in combos:
            combos[row.holes] = list(itertools.product(
                *(remaining[h] for h in row.holes)))
        actions.append(tuple((c, row.dists[c]) for c in combos[row.holes]))
    return Mdp(fam.n_states, fam.init, tuple(actions))


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of analysing a quotient scheduler.

    `realisation` is set when every hole is chosen consistently across the
    reachable states; otherwise `inconsistent` maps each multi-valued hole to
    its chosen option set.  `frequencies` counts, per hole and option, the
    reachable states committing to it (used by the CEGAR split rule).
    """

    realisation: Optional[Realisation]
    inconsistent: Mapping
    frequencies: Mapping

    @property
    def consistent(self) -> bool:
        return self.realisation is not None


def scheduler_consistency(fam: Family, sub: Subfamily,
                          sched: MemorylessScheduler,
                          reachable) -> ConsistencyVerdict:
    """Classify a scheduler of `quotient_mdp(fam, sub)` as consistent (a
    realisation) or not.  The label a reachable state's action carries
    names the option of each hole its row reads, in `Family.rows` order."""
    freqs = {h.name: {} for h in fam.holes}
    rows, choice = fam.rows, sched.choice
    for s in reachable:
        for hole, option in zip(rows[s].holes, choice[s]):
            counts = freqs[hole]
            counts[option] = counts.get(option, 0) + 1
    multi = {h: set(c) for h, c in freqs.items() if len(c) > 1}
    if multi:
        return ConsistencyVerdict(None, multi, freqs)
    assignment = {}
    for h, opts in zip(fam.holes, sub.remaining):
        counts = freqs[h.name]
        if counts:
            assignment[h.name] = next(iter(counts))
        else:
            assignment[h.name] = opts[0]  # unconstrained: first remaining
    return ConsistencyVerdict(Realisation(assignment), {}, freqs)
