"""Write the stored expected answers for the reference seeds.

    python3 perfbench/record_expected.py

For every workload and seed in SEEDS, the oracle answers the first pass of
problems and the records go to perfbench/expected/<workload>.json as
{seed: [[satisfiable, T digest, optimal value], ...]} indexed by problem id.
run.py checks the engines against these records (and the live oracle
against them) whenever it runs one of these seeds.
"""

from __future__ import annotations

import json
import os
import sys

import oracle
import run

SEEDS = range(10)


def record(workload, seed):
    from workloads import WORKLOADS, MemberTables
    wl = WORKLOADS[workload](seed)
    inputs = wl.setup()
    tables = MemberTables()
    return [oracle.expected(tables.for_problem(p), p.query)
            for p in wl.problems(inputs, tables, 0)]


def main():
    run.import_program()
    from workloads import WORKLOADS
    out_dir = os.path.join(run.HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        data = {str(seed): record(workload, seed) for seed in SEEDS}
        path = os.path.join(out_dir, workload + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
