"""Synthesis of finite Markov-chain families from probabilistic sketches.

A family is a Markov chain template whose unresolved transition targets are
holes with finite option sets; the engines decide reachability queries for
every instantiation at once.
"""

from .model import (COMPARISON_TOL, Distribution, MarkovChain, Mdp,
                    MemorylessScheduler, ModelError, Specification, check,
                    compare, induced_chain, mdp_extremal, prob01_states,
                    reach_probability, sub_mc)
from .family import (Family, Fixed, Hole, HoleRef, Realisation, Subfamily,
                     cost, enumerate_realisations, quotient_mdp, realise,
                     scheduler_consistency)
from .engines.base import SynthesisOutcome, SynthesisQuery
from .engines.enumeration import enum_solve
from .engines.cegar import cegar_solve
from .engines.cegis import cegis_solve

ENGINES = {"enum": enum_solve, "cegar": cegar_solve, "cegis": cegis_solve}

__version__ = "0.1.0"

__all__ = [
    "COMPARISON_TOL", "Distribution", "MarkovChain", "Mdp",
    "MemorylessScheduler", "ModelError", "Specification", "check", "compare",
    "induced_chain", "mdp_extremal", "prob01_states", "reach_probability",
    "sub_mc", "Family", "Fixed", "Hole", "HoleRef", "Realisation",
    "Subfamily", "cost", "enumerate_realisations",
    "quotient_mdp", "realise", "scheduler_consistency", "SynthesisOutcome",
    "SynthesisQuery", "enum_solve", "cegar_solve", "cegis_solve", "ENGINES",
]
