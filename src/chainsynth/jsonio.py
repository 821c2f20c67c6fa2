"""JSON serialisation of families, bypassing the sketch language.

Schema::

    {
      "states": 5, "init": 0,
      "holes": [{"name": "k2", "options": ["2", "3"], "costs": [0, 0]}],
      "transitions": [
        {"from": 0, "branches": [
            {"p": 0.5, "fixed": 1},
            {"p": 0.5, "hole": "k2", "table": {"2": 2, "3": 3}}]}],
      "constraints": ["(= k2 2)"],
      "cost_model": "structural"
    }

Multi-hole targets use ``"holes": [...]`` with table keys joining option
labels by ``|``.
"""

from __future__ import annotations

import json

from . import constraints as cn
from .family import Family, FamilyError, Fixed, Hole, HoleRef


def family_to_dict(fam: Family) -> dict:
    holes = [{"name": h.name, "options": list(h.options), "costs": list(h.costs)}
             for h in fam.holes]
    transitions = []
    for s, row in enumerate(fam.transitions):
        branches = []
        for p, tgt in row:
            if isinstance(tgt, Fixed):
                branches.append({"p": p, "fixed": tgt.state})
            elif len(tgt.hole_names) == 1:
                branches.append({"p": p, "hole": tgt.hole_names[0],
                                 "table": {k[0]: v for k, v in tgt.table.items()}})
            else:
                branches.append({"p": p, "holes": list(tgt.hole_names),
                                 "table": {"|".join(k): v
                                           for k, v in tgt.table.items()}})
        transitions.append({"from": s, "branches": branches})
    out = {
        "states": fam.n_states,
        "init": fam.init,
        "holes": holes,
        "transitions": transitions,
        "constraints": [c.to_sexpr() for c in fam.constraints],
        "cost_model": fam.cost_model,
    }
    if fam.variables is not None:
        out["variables"] = list(fam.variables)
        out["valuations"] = [list(v) for v in fam.valuations]
    return out


def family_from_dict(data: dict) -> Family:
    """The family `data` describes; a wrong shape raises FamilyError."""
    try:
        holes = tuple(Hole(h["name"], tuple(h["options"]),
                           tuple(h.get("costs") or [0] * len(h["options"])))
                      for h in data["holes"])
        rows = {}
        for entry in data["transitions"]:
            branches = []
            for b in entry["branches"]:
                if "fixed" in b:
                    branches.append((b["p"], Fixed(b["fixed"])))
                elif "hole" in b:
                    branches.append((b["p"], HoleRef.single(
                        b["hole"], {k: v for k, v in b["table"].items()})))
                else:
                    names = tuple(b["holes"])
                    table = {tuple(k.split("|")): v for k, v in b["table"].items()}
                    branches.append((b["p"], HoleRef(names, table)))
            if entry["from"] in rows:
                raise FamilyError("state %r has two transition entries"
                                  % (entry["from"],))
            rows[entry["from"]] = tuple(branches)
        n = data["states"]
        if len(rows) != n or set(rows) != set(range(n)):
            raise FamilyError("transitions missing for some states")
        variables = tuple(data["variables"]) if "variables" in data else None
        valuations = (tuple(tuple(v) for v in data["valuations"])
                      if "valuations" in data else None)
        return Family(
            n_states=n,
            init=data["init"],
            holes=holes,
            transitions=tuple(rows[s] for s in range(n)),
            constraints=tuple(map(cn.parse_sexpr, data.get("constraints", []))),
            cost_model=data.get("cost_model", "structural"),
            variables=variables,
            valuations=valuations,
        )
    except (TypeError, KeyError, AttributeError, cn.ConstraintError) as exc:
        raise FamilyError("malformed family: %r" % exc)


def dumps(fam: Family) -> str:
    return json.dumps(family_to_dict(fam), indent=2)


def loads(text: str) -> Family:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyError("malformed JSON family: %s" % exc)
    return family_from_dict(data)
