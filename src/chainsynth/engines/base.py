"""Shared query/outcome types and statistics for the synthesis engines."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from ..family import COST_MODELS, Family, Realisation, cost as realisation_cost
from ..model import COMPARISON_TOL, Specification

KINDS = ("feasible", "partition", "max", "min")
# a value beats another, and a bound can beat an incumbent, only by more
STRICT_GAIN = 1e-12


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class SynthesisQuery:
    kind: str  # one of KINDS
    spec: Optional[Specification] = None  # feasibility/partition
    goal: Optional[frozenset] = None  # max/min carry only the goal set
    epsilon: Optional[float] = None  # eps-optimal slack for max/min
    budget: Optional[int] = None
    cost_model: Optional[str] = None  # prices the budget; None: family's
    tolerance: float = COMPARISON_TOL

    def __post_init__(self):
        if self.kind not in KINDS:
            raise EngineError("unknown query kind %r" % self.kind)
        threshold = self.kind in ("feasible", "partition")
        if threshold and self.spec is None:
            raise EngineError("%s query needs a specification" % self.kind)
        if not threshold and self.goal is None:
            raise EngineError("%s query needs a goal set" % self.kind)
        # flags a query kind does not honour are refused, not dropped
        if threshold and (self.goal is not None or self.epsilon is not None):
            raise EngineError("%s query takes no goal set or epsilon; its "
                              "specification names the goal" % self.kind)
        if not threshold and self.spec is not None:
            raise EngineError("%s query takes a goal set, not a "
                              "specification" % self.kind)
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise EngineError("epsilon must lie in (0, 1)")
        if not 0.0 <= self.tolerance < math.inf:  # nan fails too
            raise EngineError("tolerance must be finite and non-negative")
        if not threshold and self.tolerance != COMPARISON_TOL:
            raise EngineError("%s query takes no tolerance; it compares no "
                              "threshold" % self.kind)
        if self.cost_model not in (None,) + COST_MODELS:
            raise EngineError("unknown cost model %r" % self.cost_model)
        if self.cost_model is not None and self.budget is None:
            raise EngineError("a cost model applies only to a budget")


@dataclass
class Stats:
    candidates: int = 0
    checks: int = 0
    iterations: int = 0
    wall_ms: float = 0.0
    trace: list = field(default_factory=list)

    def __post_init__(self):
        self._start = time.perf_counter()

    def stop(self):
        """Set `wall_ms` to the time since these statistics were created."""
        self.wall_ms = (time.perf_counter() - self._start) * 1000.0

    def as_dict(self):
        return {"candidates": self.candidates, "checks": self.checks,
                "iterations": self.iterations, "wall_ms": self.wall_ms}


@dataclass
class SynthesisOutcome:
    kind: str  # "witness" | "unsat" | "partition"
    witness: Optional[Realisation] = None
    value: Optional[float] = None
    cost: Optional[int] = None
    T: Optional[list] = None  # list[Realisation]
    F: Optional[list] = None
    stats: Stats = field(default_factory=Stats)

    @property
    def satisfiable(self) -> bool:
        return self.kind != "unsat"


def query_cost(fam: Family, q: SynthesisQuery, r: Realisation) -> int:
    return realisation_cost(fam, r, q.cost_model)


def beats(q: SynthesisQuery, v: float, b: float) -> bool:
    """Whether `v` is strictly better than `b` for the max/min query `q`."""
    return v > b + STRICT_GAIN if q.kind == "max" else v < b - STRICT_GAIN


def within_budget(fam: Family, q: SynthesisQuery, r: Realisation) -> bool:
    return q.budget is None or query_cost(fam, q, r) <= q.budget


def witness_outcome(fam: Family, q: SynthesisQuery, r: Realisation,
                    value: float, stats: Stats) -> SynthesisOutcome:
    """The outcome naming `r`; its cost is reported when a budget applies."""
    c = query_cost(fam, q, r) if q.budget is not None else None
    return SynthesisOutcome("witness", witness=r, value=value, cost=c,
                            stats=stats)
