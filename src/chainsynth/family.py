"""Families of Markov chains: holes, realisations, costs, quotient MDPs.

A family fixes a shared state space and leaves some transition targets open;
each target either points at a fixed state or resolves through one or more
holes via a successor table, compiled once into per-state rows.  A
realisation (total hole assignment) selects one row per state: a Markov chain
over the same index space, unreachable states kept; a quotient MDP takes
every row a subfamily allows, as a row mask over the family's full
quotient, compiled once.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import getitem, itemgetter
from typing import Mapping, Optional

import numpy as np

from .model import (Distribution, MarkovChain, MdpView, MemorylessScheduler,
                    PROB_SUM_TOL, choice_matrix)

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


StateRows = namedtuple("StateRows", "holes dists classes")
Quotient = namedtuple("Quotient", "matrix codes options unread")


def _classes(holes: tuple, dists: dict) -> tuple:
    """Parallel to `holes`, a dict from each option of the hole to its
    class: the frozenset of the options that select the same distribution
    as it whatever the other holes choose.  `dists` holds one object per
    distinct distribution, so an option's signature is the identities of
    the distributions it selects over the other holes' combinations, in
    product order."""
    tables = []
    for pos in range(len(holes)):
        signatures = {}
        for combo, dist in dists.items():
            signatures.setdefault(combo[pos], []).append(id(dist))
        groups = {}
        for o, signature in signatures.items():
            groups.setdefault(tuple(signature), []).append(o)
        tables.append({o: cls for cls in map(frozenset, groups.values())
                       for o in cls})
    return tuple(tables)


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
        declaration order, a dict from each combination of their options to
        the distribution it selects, and per hole its options' classes
        (`_classes`), None where the distributions all differ and each
        option is its own class; built on first use.  Merged branches to
        one successor add their probabilities in branch order, and equal
        distributions of one state are one object.  The full `quotient`
        and the member `template` are compiled from them."""
        options = {h.name: h.options for h in self.holes}
        combos = {}  # states that read the same holes share the dict keys
        rows = []
        for row in self.transitions:
            used = {h for _, tgt in row for h in tgt.holes()}
            local = tuple(h for h in options if h in used)
            if local not in combos:
                combos[local] = list(itertools.product(
                    *(options[h] for h in local)))
            keys = combos[local]
            targets = []  # per branch, its successor under each combination
            for _, tgt in row:
                if isinstance(tgt, Fixed):
                    targets.append(itertools.repeat(tgt.state))
                elif tgt.hole_names == local:
                    targets.append(map(tgt.table.__getitem__, keys))
                else:
                    at = [local.index(h) for h in tgt.hole_names]
                    targets.append([tgt.table[tuple(combo[i] for i in at)]
                                    for combo in keys])
            probs = [p for p, _ in row]
            floats = list(map(float, probs))
            dists, interned = {}, {}  # interned: entries -> distribution
            for combo, successors in zip(keys, zip(*targets)):
                # `merged`'s entries; distinct successors need no merging
                entries = (tuple(sorted(zip(successors, floats)))
                           if len(set(successors)) == len(successors) else
                           Distribution.merged(zip(successors, probs)))
                dist = interned.get(entries)
                if dist is None:
                    # __post_init__ checked every probability and successor
                    dist = interned[entries] = Distribution._of_sorted(entries)
                dists[combo] = dist
            rows.append(StateRows(local, dists, None if len(interned) ==
                                  len(dists) else _classes(local, dists)))
        return tuple(rows)

    @cached_property
    def quotient(self) -> Quotient:
        """The full quotient compiled from `rows` on first use: its
        row-grouped choice matrix (`model.choice_matrix`; each state's
        rows are its `rows` dists, in product order), and per row the code
        of each hole's option, for the row masks of `quotient_mdp`.  Hole
        h's options are coded from `options[h]`, a dict from each option to
        its code, and one more code stands for "h not read" in the rows of
        states that do not read h; `unread` marks those codes.  The code
        table is built once per tuple of holes read, and each state takes
        that of its tuple."""
        matrix = choice_matrix([row.dists for row in self.rows])
        sizes = [len(h.options) + 1 for h in self.holes]
        offsets = list(itertools.accumulate(sizes, initial=0))
        options = [dict(zip(h.options, range(at, at + len(h.options))))
                   for h, at in zip(self.holes, offsets)]
        unread = np.zeros(offsets[-1], dtype=bool)
        unread[[at - 1 for at in offsets[1:]]] = True
        dtype = np.min_scalar_type(offsets[-1])
        blocks = {}  # holes tuple -> the codes of a state that reads it
        for row in self.rows:
            if row.holes not in blocks:
                blocks[row.holes] = np.array(list(itertools.product(*(
                    range(a, b - 1) if h.name in row.holes else (b - 1,)
                    for h, a, b in zip(self.holes, offsets, offsets[1:])))),
                    dtype=dtype)
        codes = np.concatenate([blocks[row.holes] for row in self.rows])
        return Quotient(matrix, codes, options, unread)

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
    def chain_key(self):
        """Assignment -> its member key with each option replaced by the
        first option of its family-wide class: the options that share its
        class in every state that reads the hole.  Substituting one hole at
        a time leaves every state's distribution as it was, so members with
        one chain key induce one chain.  Where no state puts two options in
        one class this is `key_of`."""
        reads = {h.name: [] for h in self.holes}  # None: a class each
        for row in self.rows:
            for pos, h in enumerate(row.holes):
                reads[h].append(row.classes and row.classes[pos])
        firsts = []
        for h in self.holes:
            tables = reads[h.name]
            if None in tables:  # some state tells every option apart
                firsts.append(dict(zip(h.options, h.options)))
                continue
            first = {}  # class identities in every table -> first option
            firsts.append({o: first.setdefault(
                tuple(id(table[o]) for table in tables), o)
                for o in h.options})
        key_of = self.key_of
        if all(o is x for first in firsts for o, x in first.items()):
            return key_of
        return lambda a: tuple(map(getitem, firsts, key_of(a)))

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


def check_assignment(fam: Family, a: Mapping):
    """Refuse, with FamilyError, an assignment that is not a member: one
    that misses a hole, names one the family lacks, picks an option the
    hole does not have or violates the constraints."""
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


def realise(fam: Family, r: Realisation) -> MarkovChain:
    """Concrete MC induced by a member, a total, constraint-satisfying
    assignment of the family's holes and no other (`check_assignment`): a
    copy of the family's `template` with the distribution each
    hole-reading state's options select."""
    a = r.assignment
    check_assignment(fam, a)
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


def quotient_mdp(fam: Family, sub: Subfamily = None) -> MdpView:
    """Quotient MDP forgetting which realisation a state belongs to.

    It lives on the family's own states and initial state.  Per state one
    action exists for every combination, in product order of the holes'
    declared options, of the remaining options of exactly the holes its row
    reads (`Family.rows`); the action is labelled with that option tuple,
    which keys its distribution in the row's `dists`.  It is a view of the
    family's full quotient (`Family.quotient`), compiled once: the mask of
    the rows whose every option remains, found from the option codes
    without a walk over the distributions.  A subfamily that misses a hole,
    leaves a hole no option, or names an option the hole lacks or an option
    twice, is refused.
    """
    quotient = fam.quotient
    if sub is None:
        sub = Subfamily.full(fam)
    if len(sub.remaining) != len(fam.holes):
        raise FamilyError("subfamily restricts %d holes, the family has %d"
                          % (len(sub.remaining), len(fam.holes)))
    kept = []
    for h, opts, codes in zip(fam.holes, sub.remaining, quotient.options):
        if not opts:
            raise FamilyError("subfamily leaves hole %s no option" % h.name)
        for o in opts:
            if o not in codes:
                raise FamilyError("hole %s has no option %r" % (h.name, o))
        if len(set(opts)) != len(opts):
            raise FamilyError("subfamily names an option of hole %s twice"
                              % h.name)
        kept += map(codes.__getitem__, opts)
    allowed = quotient.unread.copy()
    allowed[kept] = True
    # every hole keeps an option, so every state keeps a row
    return MdpView(fam.n_states, fam.init, quotient.matrix,
                   allowed[quotient.codes].all(axis=1))


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
