from .base import EngineError, Stats, SynthesisOutcome, SynthesisQuery
from .enumeration import enum_solve
from .cegar import cegar_solve
from .cegis import cegis_solve

__all__ = ["EngineError", "Stats", "SynthesisOutcome", "SynthesisQuery",
           "enum_solve", "cegar_solve", "cegis_solve"]
