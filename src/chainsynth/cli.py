"""Command-line front end: load a sketch or JSON family, run a query with a
chosen engine, emit a human-readable report or machine JSON."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import ENGINES, jsonio, sketch
from .engines.base import EngineError, SynthesisQuery
from .family import COST_MODELS, FamilyError, Realisation, realise
from .model import COMPARISON_TOL, ModelError, Specification, check
from .sketch import SketchError

SPEC_RE = re.compile(
    r"^\s*P\s*(<=|>=|<|>)\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"\s*(?:\[\s*F\s+(.+?)\s*\])?\s*$")


class CliError(ValueError):
    pass


def load_family(path: str, fmt: str = None):
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "sketch"
    with open(path) as fh:
        text = fh.read()
    if fmt == "json":
        return jsonio.loads(text)
    if fmt != "sketch":
        raise CliError("unknown input format %r" % fmt)
    bound = os.environ.get("CHAINSYNTH_MAX_STATES", sketch.DEFAULT_MAX_STATES)
    try:
        bound = int(bound)
    except ValueError:
        raise CliError("CHAINSYNTH_MAX_STATES must be an integer, got %r"
                       % bound)
    if bound < 1:
        raise CliError("CHAINSYNTH_MAX_STATES must be positive, got %d"
                       % bound)
    return sketch.elaborate(sketch.parse(text), max_states=bound)


def parse_spec(text: str, fam) -> Specification:
    m = SPEC_RE.match(text)
    if not m or m.group(3) is None:
        raise CliError("spec must look like 'P>=0.5 [F <expr>]', got %r" % text)
    op, lam, goal_expr = m.group(1), float(m.group(2)), m.group(3)
    goal = sketch.goal_states(fam, goal_expr)
    if not goal:
        raise CliError("goal expression %r matches no state" % goal_expr)
    return Specification(goal, op, lam)


def parse_assignment(text: str, fam) -> Realisation:
    holes = {h.name: h for h in fam.holes}
    assignment = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError("--assign expects hole=option pairs")
        hole, option = (s.strip() for s in part.split("=", 1))
        if hole not in holes:
            raise CliError("--assign names unknown hole %s" % hole)
        if hole in assignment:
            raise CliError("--assign sets hole %s twice" % hole)
        holes[hole].option_index(option)  # validates the label
        assignment[hole] = option
    for name in holes:
        if name not in assignment:
            raise CliError("--assign misses hole %s" % name)
    return Realisation(assignment)


def render_realisation(r: Realisation) -> str:
    return ",".join("%s=%s" % (h, r.assignment[h]) for h in sorted(r.assignment))


def _outcome_json(args, q, out):
    query = {"kind": q.kind, "engine": args.engine}
    if q.spec is not None:
        query["spec"] = args.spec
    if q.goal is not None:
        query["goal"] = args.goal
    for k in ("epsilon", "budget"):
        v = getattr(q, k)
        if v is not None:
            query[k] = v
    if q.cost_model:
        query["cost"] = q.cost_model
    payload = {"kind": out.kind}
    if out.witness is not None:
        payload["witness"] = out.witness.as_dict()
    if out.value is not None:
        payload["value"] = out.value
    if out.cost is not None:
        payload["cost"] = out.cost
    if out.T is not None:
        payload["T"] = [r.as_dict() for r in out.T]
        payload["F"] = [r.as_dict() for r in out.F]
    return {"query": query, "engine": args.engine, "outcome": payload,
            "stats": out.stats.as_dict()}


def cmd_check(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:  # nan fails too
        raise CliError("--tolerance must be finite and non-negative")
    fam = load_family(args.input, args.format)
    spec = parse_spec(args.spec, fam)
    if not args.assign:
        raise CliError("check needs a total --assign")
    r = parse_assignment(args.assign, fam)
    mc = realise(fam, r)
    sat, value = check(mc, spec, args.tolerance)
    if args.json:
        print(json.dumps({"assignment": r.as_dict(), "value": value,
                          "sat": sat}, sort_keys=True))
    else:
        print("value     %.10g" % value)
        print("verdict   %s" % ("satisfied" if sat else "violated"))
    return 0 if sat else 1


def cmd_synth(args) -> int:
    fam = load_family(args.input, args.format)
    spec = parse_spec(args.spec, fam) if args.spec else None
    goal = None
    if args.goal:
        goal = sketch.goal_states(fam, args.goal)
        if not goal:
            raise CliError("goal expression %r matches no state" % args.goal)
    # the query refuses a missing flag and those its kind does not honour
    q = SynthesisQuery(args.kind, spec=spec, goal=goal, epsilon=args.epsilon,
                       budget=args.budget, cost_model=args.cost,
                       tolerance=args.tolerance)
    out = ENGINES[args.engine](fam, q)
    if args.json:
        print(json.dumps(_outcome_json(args, q, out), sort_keys=True))
    else:
        _print_outcome(out)
    return 0 if out.satisfiable else 1


def _print_outcome(out):
    if out.kind == "unsat":
        print("outcome   unsatisfiable")
    elif out.kind == "witness":
        print("outcome   witness")
        print("witness   %s" % render_realisation(out.witness))
        print("value     %.10g" % out.value)
        if out.cost is not None:
            print("cost      %d" % out.cost)
    else:
        print("outcome   partition (|T|=%d, |F|=%d)" % (len(out.T), len(out.F)))
        for tag, side in (("T", out.T), ("F", out.F)):
            for r in side:
                print("  %s  %s" % (tag, render_realisation(r)))
    s = out.stats
    print("stats     candidates=%d checks=%d iterations=%d wall_ms=%.1f"
          % (s.candidates, s.checks, s.iterations, s.wall_ms))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chainsynth",
        description="synthesis over finite families of Markov chains")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="sketch or JSON family")
        p.add_argument("--format", choices=("sketch", "json"),
                       help="default: inferred from the file extension")
        p.add_argument("--tolerance", type=float, default=COMPARISON_TOL,
                       help="comparison tolerance for thresholds")
        p.add_argument("--json", action="store_true", help="machine output")

    p = sub.add_parser("check", help="model-check one pinned realisation")
    common(p)
    p.add_argument("--spec", required=True, help='e.g. "P>=0.1 [F s=4]"')
    p.add_argument("--assign", required=True, help="k2=2,k3=4 (total)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="solve a synthesis query over the family")
    p.add_argument("kind", choices=("feasible", "partition", "max", "min"))
    common(p)
    p.add_argument("--spec", help="threshold property (feasible/partition)")
    p.add_argument("--goal", help="goal expression (max/min), e.g. s=4")
    p.add_argument("--engine", choices=sorted(ENGINES), default="enum")
    p.add_argument("--epsilon", type=float, help="eps-optimal slack")
    p.add_argument("--budget", type=int, help="cost budget")
    p.add_argument("--cost", choices=COST_MODELS,
                   help="cost model of the budget (default: the family's)")
    p.set_defaults(func=cmd_synth)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, EngineError, FamilyError, ModelError, SketchError,
            OSError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
