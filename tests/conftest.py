import os

import numpy as np
import pytest
from hypothesis import settings

from chainsynth import model, sketch
from chainsynth.family import Family, Fixed, Hole, HoleRef
from chainsynth.model import ModelError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKETCHES = os.path.join(ROOT, "sketches")

# property tests replay the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("deterministic")


# a hole whose unnamed options are labelled by expressions with brackets;
# option k steps state 0 to k + 1, so state 4 is reached under "(1 + 2) * 1"
UNNAMED_OPTIONS = """
hole @k@ either { -1, 1+2*0, (1+2)*1 }
module m
s : [0..4] init 0;
s = 0 -> 1: s'=@k@ + 1;
s > 0 -> 1: s'=s;
endmodule
"""


VI_CONVERGENCE = 1e-10  # certified gap at which interval iteration stops
VI_MAX_SWEEPS = 10 ** 6


def interval_iteration(mc, goal, max_sweeps=VI_MAX_SWEEPS):
    """Reachability values of `mc` by interval iteration: the reference
    that the exact solve of `reach_probability` is compared against.  The
    prob-0 and prob-1 states are those of `prob01_states`; on the others
    x = P x + b is iterated from 0 and from 1 until the certified gap
    between the two bounds is below VI_CONVERGENCE, and a gap left after
    `max_sweeps` sweeps raises ModelError."""
    prob0, prob1 = model.prob01_states(mc, frozenset(goal))
    x = np.zeros(mc.n_states)
    x[list(prob1)] = 1.0
    unknown = sorted(set(range(mc.n_states)).difference(prob0, prob1))
    if not unknown:
        return x
    unknown = np.array(unknown, dtype=np.intp)
    rows, cols, vals, _, b = model._system(
        *model._csr_rows([mc.transitions[s] for s in unknown]),
        np.arange(len(unknown)), unknown, x)
    n = len(b)
    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(max_sweeps):
        lo = np.bincount(rows, weights=vals * lo[cols], minlength=n) + b
        hi = np.bincount(rows, weights=vals * hi[cols], minlength=n) + b
        if np.max(hi - lo) < VI_CONVERGENCE:
            x[unknown] = ((lo + hi) / 2.0).clip(0.0, 1.0)
            return x
    raise ModelError("interval iteration left a gap of %g after %d sweeps"
                     % (np.max(hi - lo), max_sweeps))


def toy_path():
    return os.path.join(SKETCHES, "toy.sk")


@pytest.fixture(scope="session")
def toy_family():
    with open(toy_path()) as fh:
        return sketch.elaborate(sketch.parse(fh.read()))


@pytest.fixture(scope="session")
def sensors_family():
    with open(os.path.join(SKETCHES, "sensors.sk")) as fh:
        return sketch.elaborate(sketch.parse(fh.read()))


def tiny_exit_family():
    """Three states, two members: state 0 leaves with probability 1e-12 to
    the goal 1 and 1e-12 to the sink 2 and otherwise loops, so the goal is
    reached with probability 0.5.  The hole only relabels the sink's loop."""
    eps = 1e-12
    return Family(
        3, 0, (Hole("h", ("a", "b")),),
        (((eps, Fixed(1)), (eps, Fixed(2)), (1.0 - 2 * eps, Fixed(0))),
         ((1.0, Fixed(1)),),
         ((1.0, HoleRef.single("h", {"a": 2, "b": 2})),)))


def cycle_exit_family(stop_goal):
    """Four states, two members.  Under "stop" state 0 moves to the goal 2
    with probability `stop_goal` and otherwise to the sink 3.  Under
    "cycle" it moves to state 1, which returns to 0 except for exits of
    2**-40 (about 1e-12) each to the goal and the sink, so the goal is
    reached with probability 0.5.  1 - 2 * 2**-40 is exact in floating
    point, so state 1's row sums to one and 0.5 is the exact value."""
    eps = 2.0 ** -40
    return Family(
        4, 0, (Hole("h", ("stop", "cycle")),),
        (((1.0 - stop_goal, HoleRef.single("h", {"stop": 3, "cycle": 1})),
          (stop_goal, HoleRef.single("h", {"stop": 2, "cycle": 1}))),
         ((1.0 - 2 * eps, Fixed(0)), (eps, Fixed(2)), (eps, Fixed(3))),
         ((1.0, Fixed(2)),),
         ((1.0, Fixed(3)),)))


def singular_cycle_family():
    """Five states, two members.  State 0 moves to 1 and leaves to the goal
    3 and the sink 4 with 3e-24 each, too little to register next to 1.0.
    State 1 moves to 2, which returns to 0 under "a" and enters the goal
    under "b".  Under "a" the cycle's linear system is singular in floating
    point; "b" reaches the goal with probability 1.0 to double precision."""
    eps = 3e-24
    return Family(
        5, 0, (Hole("h", ("a", "b")),),
        (((1.0, Fixed(1)), (eps, Fixed(3)), (eps, Fixed(4))),
         ((1.0, Fixed(2)),),
         ((1.0, HoleRef.single("h", {"a": 0, "b": 3})),),
         ((1.0, Fixed(3)),),
         ((1.0, Fixed(4)),)))


@pytest.fixture(scope="session")
def example_family():
    """The running-example family built directly, bypassing the sketch
    front end, so model/family tests do not depend on the parser."""
    return Family(
        5, 0,
        (Hole("k2", ("2", "3")), Hole("k3", ("2", "4"))),
        (
            ((0.5, Fixed(1)), (0.5, HoleRef.single("k2", {"2": 2, "3": 3}))),
            ((0.1, Fixed(0)), (0.9, Fixed(1))),
            ((1.0, HoleRef.single("k3", {"2": 2, "4": 4})),),
            ((0.2, Fixed(3)), (0.8, HoleRef.single("k3", {"2": 2, "4": 4}))),
            ((1.0, Fixed(4)),),
        ))


R1 = {"k2": "2", "k3": "2"}
R2 = {"k2": "2", "k3": "4"}
R3 = {"k2": "3", "k3": "2"}
R4 = {"k2": "3", "k3": "4"}


def in_scope(scope, r):
    """Whether realisation `r` lies in the product a learned scope names:
    each hole the scope restricts takes one of its options."""
    return all(r[h] in opts for h, opts in scope.items())
