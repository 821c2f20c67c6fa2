"""chainsynth benchmark: one client, closed loop, seeded workloads.

    python3 perfbench/run.py --workload deep-chain --seed 0 --seconds 35 --trace 0

The client sends the next query only after the previous one returned.  A
pass sends every problem of the workload's fixed list to enum, cegar and
cegis in turn; passes repeat until the next one would overrun --seconds (at
least two passes run).  Every answer is checked against the expected answer
(stored in perfbench/expected/ for reference seeds, computed by the
independent oracle otherwise) and across engines.

Every time is CPU time of this process (`time.process_time`): the
benchmark runs on one thread, so on an idle host that equals wall time,
and on a shared host it leaves out the time the process waited for a core.
On the shared 2-core VM this was built on, that waiting made one pass of
the same cegis queries take 1.19 to 1.83 s of wall time but 1.16 to 1.31 s
of CPU time.  CPU times are also scaled to a nominal host speed: a fixed
reference computation is timed between queries and at set-up, and a time t
measured while it took r seconds is reported as t * REF_S / r.  Unscaled
CPU times and wall-clock times are in the info line.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes over the same problems and reports the per-layer metrics plus
the tracing overhead.  Every metric is printed by name with its unit; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine, BLAS worker threads would make
# the benchmark measure the scheduler instead of the program.  Must precede
# the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

CLOCK = time.process_time  # what every reported time is measured with
START = CLOCK()  # set-up is timed from here, numpy included

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENGINE_ORDER = ("enum", "cegar", "cegis")
SETUP_CHILDREN = 4  # fresh processes that set up again, for the median
MIN_PASSES = 2
REF_S = 0.005  # nominal duration of reference(); timings are scaled to it
REF_PER_PASS = 36  # reference timings spread over each pass
CONCLUSIVE = ("all-sat", "all-violate", "pruned")


class BenchError(RuntimeError):
    pass


def import_program():
    """Import chainsynth from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "chainsynth", "__init__.py")):
        raise BenchError("no chainsynth sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import chainsynth
    if not os.path.abspath(chainsynth.__file__).startswith(SRC + os.sep):
        raise BenchError("imported chainsynth from %s" % chainsynth.__file__)
    return chainsynth


def warm_up(cs):
    """First calls into numpy/scipy: a dense and a sparse solve through
    every engine's path."""
    from chainsynth.randfam import pruning_family
    fam, spec = pruning_family(4)
    for solve in cs.ENGINES.values():
        solve(fam, cs.SynthesisQuery("partition", spec=spec))
    n = 700
    rows = [cs.Distribution.from_pairs([(max(s - 1, 0), 0.5),
                                        (min(s + 1, n - 1), 0.5)])
            for s in range(n)]
    cs.reach_probability(cs.MarkovChain(n, n // 2, tuple(rows)), {n - 1})


_REF = []  # the reference's inputs, built on first use


def _reference_inputs():
    table = {(i, i * 7 % 1000): (float(i), i) for i in range(40_000)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    succ = [((0.5, (s + 1) % 60), (0.5, (s + 7) % 60)) for s in range(60)]
    a = 60.0 * np.eye(60) + np.linspace(0.0, 1.0, 3600).reshape(60, 60)
    return table, keys[:8000], succ, a


def reference():
    """Seconds that one fixed computation takes at this moment, built like
    the program's work: reads and writes of tuple-keyed dict entries
    scattered over a table of a few MB (the engines' objects), value
    iteration over a 60-state chain in pure Python and three 60x60 dense
    solves (the model checker).  The table does not fit in a core's private
    caches, so the reference slows down with the program when a neighbour
    on the host contends for the shared cache (perfbench/README.md has the
    measurements)."""
    if not _REF:
        _REF.extend(_reference_inputs())
    table, keys, succ, a = _REF
    start = CLOCK()
    acc = 0.0
    for k in keys:
        v = table[k]
        acc += v[0] * 0.5
        table[k] = (acc % 7.0, v[1])
    x = [0.0] * 59 + [1.0]
    for _ in range(15):
        x = [max(x[s], sum(p * x[t] for p, t in succ[s])) for s in range(60)]
    for _ in range(3):
        np.linalg.solve(a, a[0])
    return CLOCK() - start


def host_scale(samples):
    """Factor that turns seconds measured now into nominal seconds."""
    return REF_S / statistics.median(samples)


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    affinity = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": affinity, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def load_stored(workload):
    path = os.path.join(HERE, "expected", workload + ".json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, k)]


class Run:
    """State of one benchmark run: answers, failures."""

    def __init__(self, cs, seed, stored):
        from workloads import MemberTables
        self.cs = cs
        self.tables = MemberTables()
        self.stored = stored.get(str(seed), [])
        self.attempted = 0
        self.failed = 0
        self.disagreements = 0
        self.expected_mismatch = 0
        self.messages = []

    def note(self, text):
        if len(self.messages) < 20:
            self.messages.append(text)

    def expected(self, p):
        table = self.tables.for_problem(p)
        exp = oracle.expected(table, p.query)
        if p.pid < len(self.stored):
            stored = self.stored[p.pid]
            if not oracle.same_answer(stored, exp):
                self.expected_mismatch += 1
                self.note("problem %d: oracle %r, stored %r"
                          % (p.pid, exp, stored))
            exp = stored
        return table, exp

    def run_pass(self, problems, tracer=None):
        """Send every problem to every engine.  Returns the CPU and the
        wall-clock latency of each call, in problem order and ENGINE_ORDER
        within a problem, the engines' Stats summed over the pass and the
        pass's host_scale()."""
        latencies = []
        walls = []
        refs = []
        stats = zero_stats()
        checked = [(p,) + self.expected(p) for p in problems]
        clock, wall_clock = CLOCK, time.perf_counter
        ref_every = max(1, len(checked) // REF_PER_PASS)
        for i, (p, table, exp) in enumerate(checked):
            if i % ref_every == 0:
                refs.append(reference())
            answers = []
            for name in ENGINE_ORDER:
                solve = self.cs.ENGINES[name]
                self.attempted += 1
                if tracer is not None:
                    tracer.qid = self.attempted
                with tracer.span(name) if tracer else nullcontext():
                    wall_start = wall_clock()
                    start = clock()
                    try:
                        out = solve(p.fam, p.query)
                        error = None
                    except Exception as exc:  # counted as failed, not fatal
                        out, error = None, "%s: %s" % (type(exc).__name__, exc)
                    elapsed = clock() - start
                    walls.append(wall_clock() - wall_start)
                latencies.append(elapsed)
                if error is None:
                    error = oracle.check_answer(p.fam, p.query, out, exp,
                                                table)
                if error is None and p.analytic_t is not None and \
                        len(out.T) != p.analytic_t:
                    error = "|T| = %d, analytically %d" % (len(out.T),
                                                           p.analytic_t)
                if error is not None:
                    self.failed += 1
                    self.note("problem %d (%s, %s): %s"
                              % (p.pid, p.family_id, name, error))
                    continue
                answers.append(_summary(p.fam, out, p.query))
                _add_stats(stats[name], out.stats)
            if not all(oracle.same_answer(answers[0], a) for a in answers):
                self.disagreements += 1
                self.note("problem %d: engines disagree: %r"
                          % (p.pid, answers))
        return latencies, walls, stats, host_scale(refs)


def engine_totals(latencies):
    """Seconds per engine from a list ordered as run_pass returns it."""
    k = len(ENGINE_ORDER)
    return {e: sum(latencies[i::k]) for i, e in enumerate(ENGINE_ORDER)}


def _summary(fam, out, q):
    """What every engine must agree on (witnesses may differ): the record
    format of oracle.expected()."""
    if out.kind == "partition":
        return [True, oracle.digest(r.key(fam) for r in out.T), None]
    exact = q.kind in ("max", "min") and q.epsilon is None and out.satisfiable
    return [out.satisfiable, None, out.value if exact else None]


def zero_stats():
    return {e: dict.fromkeys(("candidates", "checks", "iterations", "quotient",
                              "conclusive", "pruned"), 0)
            for e in ENGINE_ORDER}


def _add_stats(acc, st):
    acc["candidates"] += st.candidates
    acc["checks"] += st.checks
    acc["iterations"] += st.iterations
    for rec in st.trace:
        if "min" in rec or "bound" in rec:
            acc["quotient"] += 1
            acc["conclusive"] += rec.get("verdict") in CONCLUSIVE
        acc["pruned"] += rec.get("pruned", 0)


def _merge(into, part):
    for name, values in part.items():
        for key, v in values.items():
            into[name][key] += v


def set_up(workload, seed, tracer=None):
    """Import chainsynth, warm numpy/scipy up and build the workload's
    inputs.  Returns the program, the workload, its inputs and the set-up
    time (scaled, unscaled) counted from START (before numpy was
    imported)."""
    cs = import_program()
    warm_up(cs)
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        raise BenchError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(sorted(WORKLOADS))))
    wl = WORKLOADS[workload](seed)
    if tracer is not None:
        tracer.install()
    try:
        inputs = wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = CLOCK() - START
    refs = [reference() for _ in range(12)]
    scale = host_scale(refs[3:])  # the first calls build and warm the table
    return cs, wl, inputs, (setup_s * scale, setup_s)


def setup_in_child(workload, seed):
    """(scaled, unscaled) set-up time of a fresh process (python start-up
    excluded)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("set-up in a child process failed: %s"
                         % proc.stderr.strip()[-500:])
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def timing_metrics(rows, scales, setup_s):
    """End-to-end timings from the untraced passes' latencies, each pass
    scaled by its factor.  A query's typical latency is its median over
    the passes; the percentiles are over every query sent."""
    rows = [[x * k for x in row] for row, k in zip(rows, scales)]
    typical = [statistics.median(col) for col in zip(*rows)]
    lat = sorted(x for row in rows for x in row)
    metrics = {"queries_per_s": (len(typical) / sum(typical), "1/s"),
               "query_ms.p50": (percentile(lat, 50) * 1e3, "ms"),
               "query_ms.p90": (percentile(lat, 90) * 1e3, "ms")}
    for e, v in engine_totals(typical).items():
        metrics[e + ".solve_s"] = (v, "s")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def run(workload, seed, seconds, trace):
    clock = time.perf_counter  # the run's length is wall time
    from tracer import Tracer
    tracer = Tracer() if trace else None
    cs, wl, inputs, own_setup = set_up(workload, seed, tracer)
    setup_samples = [own_setup]
    if tracer is None:
        setup_samples += [setup_in_child(workload, seed)
                          for _ in range(SETUP_CHILDREN)]
    state = Run(cs, seed, load_stored(workload))
    rows = []  # latencies of each untraced pass, in run_pass order
    wall_rows = []  # the same calls' wall-clock latencies
    scales = []  # host_scale() of each untraced pass
    untraced = dict.fromkeys(ENGINE_ORDER, 0.0)
    traced = dict.fromkeys(ENGINE_ORDER, 0.0)
    stats = zero_stats()
    passes = lists = 0
    start = clock()
    while True:
        pass_start = clock()
        problems = wl.problems(inputs, state.tables, lists)
        lists += 1
        latencies, walls, _, scale = state.run_pass(problems)
        rows.append(latencies)
        wall_rows.append(walls)
        scales.append(scale)
        for e, v in engine_totals(latencies).items():
            untraced[e] += v
        if tracer is not None:
            problems = wl.problems(inputs, state.tables, lists)
            lists += 1
            tracer.install()
            try:
                latencies, _, part, _ = state.run_pass(problems, tracer)
            finally:
                tracer.uninstall()
            for e, v in engine_totals(latencies).items():
                traced[e] += v
            _merge(stats, part)
        passes += 1
        spent = clock() - start
        if passes >= (1 if tracer else MIN_PASSES) and \
                spent + (clock() - pass_start) > seconds:
            break
    cpu = wall = {}
    if tracer is None:
        metrics = timing_metrics(rows, scales, statistics.median(
            s for s, _ in setup_samples))
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        unscaled = [1.0] * len(rows)
        cpu = {k: v for k, (v, _) in timing_metrics(
            rows, unscaled,
            statistics.median(c for _, c in setup_samples)).items()}
        wall = {k: v for k, (v, _) in timing_metrics(
            wall_rows, unscaled, math.nan).items() if k != "setup_s"}
    else:
        metrics = layer_metrics(tracer, passes, untraced, traced, stats)
        tracer.dump(os.path.join(trace_dir(), "%s-spans.npz" % workload))
    seen = set()
    reused = 0
    for p in problems:
        reused += p.family_id in seen
        seen.add(p.family_id)
    n = len(problems) * len(ENGINE_ORDER) * passes
    info = {"workload": workload, "seed": seed, "passes": passes,
            "problems": len(problems), "latency_samples": n,
            "samples_beyond_p90": n - math.ceil(0.9 * n),
            "host_scale": scales, "cpu": cpu, "wall": wall,
            "family_reuse": reused / len(problems),
            "failed_frac": state.failed / max(1, state.attempted),
            "disagreements": state.disagreements,
            "expected_mismatch": state.expected_mismatch,
            "stored_expected": len(state.stored),
            "setup_samples_s": setup_samples,
            "spans_dropped": tracer.dropped if tracer else 0,
            "env": environment()}
    correct = state.failed == 0 and state.disagreements == 0 and \
        state.expected_mismatch == 0
    return metrics, info, state, correct


def trace_dir():
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


LAYER_SPANS = (
    ("model.reach_probability", ("calls", "s", "states")),
    ("model.prob01_states", ("calls", "s")),
    ("model.mdp_extremal", ("calls", "s", "states")),
    ("model.induced_chain", ("calls", "s")),
    ("model.sub_mc", ("calls", "s")),
    ("model.check", ("calls", "s")),
    ("family.realise", ("calls", "s")),
    ("family.enumerate_realisations", ("calls", "s", "yielded")),
    ("family.quotient_mdp", ("calls", "s")),
    ("family.scheduler_consistency", ("calls", "s")),
    ("family.cost", ("calls", "s")),
    ("cegis.next_candidate", ("calls", "s")),
    ("cegis.extract_counterexample", ("calls", "s")),
)
SETUP_SPANS = (("sketch.parse", ("s",)), ("sketch.elaborate", ("s", "states")))
UNITS = {"calls": "count", "s": "s", "states": "count", "yielded": "count"}


def layer_metrics(tracer, passes, untraced, traced, stats):
    """Per-layer metrics per traced pass (setup spans per set-up build)."""
    out = {}

    def put(name, fields, per):
        agg = tracer.totals(name)
        for f in fields:
            raw = {"calls": agg.calls, "s": agg.busy}.get(f, agg.units)
            out["%s.%s" % (name, f)] = (raw / per, UNITS[f])

    for name, fields in LAYER_SPANS:
        put(name, fields, passes)
    for name, fields in SETUP_SPANS:
        put(name, fields, 1)
    for e in ENGINE_ORDER:
        agg = tracer.totals(e)
        out[e + ".self_s"] = (agg.self_s / passes, "s")
        out[e + ".child_s"] = ((agg.busy - agg.self_s) / passes, "s")
        out[e + ".traced_solve_s"] = (traced[e] / passes, "s")
        out[e + ".trace_overhead_s"] = (
            (traced[e] - untraced[e]) / passes, "s")
        for f in ("candidates", "checks", "iterations"):
            out["%s.%s" % (e, f)] = (stats[e][f] / passes, "count")
    q = stats["cegar"]["quotient"]
    out["cegar.conclusive_ratio"] = (
        stats["cegar"]["conclusive"] / q if q else 0.0, "ratio")
    c = stats["cegis"]["checks"]
    out["cegis.pruned_per_check"] = (
        stats["cegis"]["pruned"] / c if c else 0.0, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the (scaled, unscaled) set-up time "
                    "and exit")
    args = ap.parse_args(argv)
    if not args.setup_only and args.seconds is None:
        ap.error("--seconds is required")
    try:
        if args.setup_only:
            setup_s = set_up(args.workload, args.seed)[3]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        metrics, info, state, correct = run(args.workload, args.seed,
                                            args.seconds, args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for msg in state.messages:
        print("perfbench: %s" % msg, file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
