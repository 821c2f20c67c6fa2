"""Independent reference answers and the answer gate.

The oracle resolves a family's members with its own code (dense numpy
tensors, one batched linear solve per chunk of members) and never calls the
chainsynth model checker, so a defect there cannot hide behind an agreeing
oracle.  `expected()` turns a member table into the record that is stored
with the benchmark: satisfiability, a digest of the satisfying set T and the
optimal value.  `check_answer()` is the gate that feeds `failed`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

VALUE_TOL = 1e-6  # engines report values to this precision
MAX_CHUNK_CELLS = 250_000  # members * n * n per batched solve


@dataclass
class MemberTable:
    """Every constraint-satisfying member of a family, in lexicographic
    option order, with its reachability value and (optionally) cost."""

    keys: list  # list[tuple[str, ...]] option labels per hole
    values: np.ndarray  # probability of reaching the goal from init
    costs: np.ndarray  # per-member cost under the query's cost model

    @cached_property
    def index(self):
        return {k: i for i, k in enumerate(self.keys)}


def _members(fam):
    ranges = [range(len(h.options)) for h in fam.holes]
    idx = []
    for combo in itertools.product(*ranges):
        if fam.constraints:
            assignment = {h.name: h.options[i]
                          for h, i in zip(fam.holes, combo)}
            if not all(c.eval(assignment) for c in fam.constraints):
                continue
        idx.append(combo)
    return np.array(idx, dtype=np.int64).reshape(len(idx), len(fam.holes))


def _successor_columns(fam, combos):
    """Per state, a list of (probability, successor array over members)."""
    hole_pos = {h.name: i for i, h in enumerate(fam.holes)}
    m = len(combos)
    rows = []
    for row in fam.transitions:
        out = []
        for p, tgt in row:
            if hasattr(tgt, "state"):
                out.append((p, np.full(m, tgt.state, dtype=np.int64)))
                continue
            holes = [fam.hole(h) for h in tgt.hole_names]
            lut = np.empty([len(h.options) for h in holes], dtype=np.int64)
            for key, succ in tgt.table.items():
                pos = tuple(h.option_index(o) for h, o in zip(holes, key))
                lut[pos] = succ
            cols = tuple(combos[:, hole_pos[h]] for h in tgt.hole_names)
            out.append((p, lut[cols]))
        rows.append(out)
    return rows


def _tensor(n, rows, lo, hi):
    """Dense transition matrices of members lo..hi-1."""
    k = hi - lo
    P = np.zeros((k, n, n))
    ar = np.arange(k)
    for s, row in enumerate(rows):
        for p, succ in row:
            np.add.at(P, (ar, s, succ[lo:hi]), p)
    return P


def _closure(A, seed):
    """Boolean fixpoint: states with a path (along 0/1 matrices A,
    member-wise) into seed."""
    R = seed.copy()
    while True:
        nxt = R | (np.matmul(A, R[:, :, None].astype(np.float64))[:, :, 0] > 0)
        if (nxt == R).all():
            return R
        R = nxt


def member_table(fam, goal, cost_model=None) -> MemberTable:
    """Values (and costs, when cost_model is given) of every member."""
    combos = _members(fam)
    n, m = fam.n_states, len(combos)
    rows = _successor_columns(fam, combos)
    goal_mask = np.zeros(n, dtype=bool)
    goal_mask[list(goal)] = True
    values = np.empty(m)
    costs = np.zeros(m, dtype=np.int64)
    chunk = max(1, MAX_CHUNK_CELLS // (n * n))
    eye = np.eye(n)
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        P = _tensor(n, rows, lo, hi)
        edge = P > 0
        can_reach = _closure(edge.astype(np.float64),
                             np.broadcast_to(goal_mask, (hi - lo, n)))
        fixed = ~can_reach | goal_mask
        A = np.where(fixed[:, :, None], eye, eye - P)
        b = (goal_mask & can_reach).astype(np.float64)
        x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        values[lo:hi] = np.clip(x[:, fam.init], 0.0, 1.0)
        if cost_model == "structural":
            start = np.zeros((hi - lo, n), dtype=bool)
            start[:, fam.init] = True
            reach = _closure(np.transpose(edge, (0, 2, 1)).astype(np.float64),
                             start)
            costs[lo:hi] = reach.sum(axis=1) + \
                (edge & reach[:, :, None]).sum(axis=(1, 2))
    if cost_model == "optionsum":
        table = [np.array(h.costs, dtype=np.int64) for h in fam.holes]
        for j, t in enumerate(table):
            costs += t[combos[:, j]]
    keys = [tuple(h.options[i] for h, i in zip(fam.holes, c)) for c in combos]
    return MemberTable(keys, values, costs)


def _compare(value, op, threshold, tol):
    """The tolerance band of chainsynth.model.compare, restated so that the
    gate does not rely on the program's own comparison."""
    if op == ">=":
        return value >= threshold - tol
    if op == ">":
        return value > threshold + tol
    if op == "<=":
        return value <= threshold + tol
    return value < threshold - tol


def digest(keys) -> str:
    h = hashlib.sha1()
    for k in sorted(keys):
        h.update(("\x1f".join(k) + "\x1e").encode())
    return h.hexdigest()[:16]


def _admissible(table, q):
    if q.budget is None:
        return np.ones(len(table.keys), dtype=bool)
    return table.costs <= q.budget


def expected(table: MemberTable, q) -> list:
    """[satisfiable, digest of T or None, optimal value or None]."""
    adm = _admissible(table, q)
    if q.kind in ("feasible", "partition"):
        spec = q.spec
        sat = np.array([_compare(v, spec.op, spec.threshold, q.tolerance)
                        for v in table.values], dtype=bool) & adm
        T = [k for k, s in zip(table.keys, sat) if s]
        return [bool(sat.any()), digest(T) if q.kind == "partition" else None,
                None]
    if not adm.any():
        return [False, None, None]
    vals = table.values[adm]
    opt = float(vals.max() if q.kind == "max" else vals.min())
    return [True, None, opt]


def check_answer(fam, q, out, exp, table: MemberTable) -> str | None:
    """None if `out` answers `q` as `exp` demands, else the reason."""
    sat, t_digest, opt = exp
    if q.kind == "partition":  # sat means T is nonempty; the digest decides
        if out.kind != "partition":
            return "partition query answered with %r" % out.kind
        t_keys = [r.key(fam) for r in out.T]
        f_keys = [r.key(fam) for r in out.F]
        if len(set(t_keys) | set(f_keys)) != len(table.keys) or \
                len(t_keys) + len(f_keys) != len(table.keys):
            return "T and F do not partition the family"
        if digest(t_keys) != t_digest:
            return "T digest %s, expected %s" % (digest(t_keys), t_digest)
        return None
    if out.satisfiable != sat:
        return "satisfiable=%s, expected %s" % (out.satisfiable, sat)
    if not sat:
        return None
    pos = table.index.get(out.witness.key(fam))
    if pos is None:
        return "witness %r is not a member" % (out.witness.as_dict(),)
    if q.budget is not None and table.costs[pos] > q.budget:
        return "witness exceeds the budget"
    v = float(table.values[pos])
    if q.kind == "feasible":
        if not _compare(v, q.spec.op, q.spec.threshold, q.tolerance):
            return "witness value %.9f violates the specification" % v
        return None
    if abs(out.value - v) > VALUE_TOL:
        return "reported value %.9f, witness has %.9f" % (out.value, v)
    if q.epsilon is None:
        if abs(v - opt) > VALUE_TOL:
            return "value %.9f, optimum %.9f" % (v, opt)
        return None
    eps = q.epsilon
    ok = v >= (1.0 - eps) * opt - VALUE_TOL if q.kind == "max" \
        else v <= opt / (1.0 - eps) + VALUE_TOL
    if ok:
        return None
    return "value %.9f outside the %g-bound of %.9f" % (v, eps, opt)


def same_answer(a, b) -> bool:
    """Expected-answer records agree (values to VALUE_TOL)."""
    if a[0] != b[0] or a[1] != b[1]:
        return False
    if a[2] is None or b[2] is None:
        return a[2] is None and b[2] is None
    return abs(a[2] - b[2]) <= VALUE_TOL
