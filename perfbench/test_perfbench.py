"""Tests of the benchmark itself: seeding, the answer gate, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
from tracer import Tracer
from workloads import BENCH_SIZES, WORKLOADS, MemberTables, Problem

import chainsynth
from chainsynth import jsonio, randfam
from chainsynth.engines import base, cegar, cegis, enumeration

HERE = os.path.dirname(os.path.abspath(__file__))


def describe(problems):
    """Everything the program receives, as comparable text."""
    out = []
    for p in problems:
        q = p.query
        spec = q.spec and (sorted(q.spec.goal), q.spec.op, q.spec.threshold)
        out.append((p.family_id, jsonio.dumps(p.fam), q.kind, spec,
                    sorted(q.goal) if q.goal else None, q.epsilon, q.budget,
                    q.cost_model))
    return out


def problem_list(workload, seed, serial=0):
    wl = WORKLOADS[workload](seed)
    inputs = wl.setup()
    return wl.problems(inputs, MemberTables(), serial)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determines_the_queries(workload):
    first = describe(problem_list(workload, 3))
    assert first == describe(problem_list(workload, 3))
    assert first != describe(problem_list(workload, 4))


def test_many_small_passes_repeat_the_work_with_new_families():
    wl = WORKLOADS["many-small"](0)
    inputs = wl.setup()
    a = wl.problems(inputs, MemberTables(), 0)
    b = wl.problems(inputs, MemberTables(), 1)
    fams = [jsonio.dumps(p.fam) for p in a + b]
    assert len(set(fams)) == len(fams)  # no content sent twice
    for p, q in zip(a, b):
        assert p.fam is not q.fam and p.query is q.query
        assert [h.options for h in p.fam.holes] == \
            [h.options for h in q.fam.holes]
        assert [[pr for pr, _ in row] for row in p.fam.transitions] == \
            [[pr for pr, _ in row] for row in q.fam.transitions]
    # the same members, reached through renamed holes
    for p, q in zip(a[:12], b[:12]):
        tp = MemberTables().for_problem(p)
        tq = MemberTables().for_problem(q)
        assert tp.keys == tq.keys and (tp.values == tq.values).all()


def small_run(workload, count, stored=None, tracer=None):
    wl = WORKLOADS[workload](0)
    inputs = wl.setup()
    state = run.Run(chainsynth, 0, stored or {})
    problems = wl.problems(inputs, state.tables, 0)[:count]
    return (state,) + run_problems(state, problems, tracer)


def run_problems(state, problems, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        latencies, _, stats, _ = state.run_pass(problems, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return run.engine_totals(latencies), stats


@pytest.mark.parametrize("workload,count", [("many-small", 24),
                                            ("wide-family", 6),
                                            ("deep-chain", 4)])
def test_reference_answers_pass_the_gate(workload, count):
    stored = run.load_stored(workload)
    assert "0" in stored, "expected answers for seed 0 are stored"
    state, _, _ = small_run(workload, count, stored)
    assert state.attempted == 3 * count
    assert (state.failed, state.disagreements, state.expected_mismatch) == \
        (0, 0, 0), state.messages


def test_gate_catches_a_corrupted_expected_answer():
    stored = run.load_stored("many-small")
    corrupted = json.loads(json.dumps(stored))
    for rec in corrupted["0"][:8]:
        if rec[1] is not None:
            rec[1] = "0" * 16  # wrong T digest
        elif rec[2] is not None:
            rec[2] += 0.01  # wrong optimum
        else:
            rec[0] = not rec[0]  # wrong satisfiability
    state, _, _ = small_run("many-small", 8, corrupted)
    assert state.expected_mismatch == 8
    assert state.failed > 0


def test_bench_family_partitions_are_checked_against_the_analytic_size():
    problems = problem_list("wide-family", 0)
    sizes = {fid: n_mid * n_tail for fid, _, n_mid, n_tail in BENCH_SIZES}
    analytic = [(p.family_id, p.analytic_t) for p in problems
                if p.family_id in sizes and p.query.kind == "partition"]
    assert analytic == list(sizes.items())
    # the default bench_family has |T| = 25 * 7 = 175; a wrong analytic
    # size fails every engine
    for shape, t, failed in (((), 175, 0), ((16, 10, 4), 39, 3)):
        fam, spec = randfam.bench_family(*shape)
        q = chainsynth.SynthesisQuery("partition", spec=spec)
        state = run.Run(chainsynth, 0, {})
        run_problems(state, [Problem(0, "bench", fam, q, t)])
        assert (state.attempted, state.failed) == (3, failed), state.messages


def test_oracle_matches_enumeration_on_random_families():
    for p in problem_list("many-small", 1)[:40]:
        q = p.query
        goal = q.goal if q.goal is not None else q.spec.goal
        table = oracle.member_table(p.fam, goal)
        index = table.index
        for r in chainsynth.enumerate_realisations(p.fam):
            mc = chainsynth.realise(p.fam, r)
            v = chainsynth.reach_probability(mc, goal)[mc.init]
            assert abs(table.values[index[r.key(p.fam)]] - v) < 1e-9


def test_tracer_wraps_names_where_they_are_bound():
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in ((enumeration, "check"), (enumeration, "realise"),
                          (cegar, "mdp_extremal"), (cegar, "quotient_mdp"),
                          (cegis, "reach_probability"), (cegis, "sub_mc"),
                          (base, "realisation_cost"),
                          (chainsynth.model, "prob01_states"),
                          (cegis.AssignmentSpace, "next_candidate")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), (mod, attr)
    finally:
        tracer.uninstall()


def test_traced_counts_agree_with_engine_stats():
    tracer = Tracer()
    state, engine_s, stats = small_run("many-small", 16, tracer=tracer)
    assert state.failed == 0, state.messages
    calls = lambda name: tracer.totals(name).calls
    assert calls("model.reach_probability") >= stats["enum"]["checks"] > 0
    assert calls("family.realise") >= stats["enum"]["candidates"]
    assert calls("model.mdp_extremal") >= stats["cegar"]["quotient"]
    assert calls("cegis.next_candidate") >= stats["cegis"]["iterations"]
    assert calls("model.prob01_states") == calls("model.reach_probability")
    for name in run.ENGINE_ORDER:
        agg = tracer.totals(name)
        assert agg.calls == 16
        # self time plus child time is the engine span; the harness's own
        # timer sits just inside the span
        assert agg.self_s >= 0.0
        assert agg.busy >= engine_s[name]
        assert agg.busy - engine_s[name] < 0.05 * engine_s[name] + 0.01


def test_untraced_run_after_traced_run_calls_originals():
    originals = {(m, a): getattr(m, a) for m, a in (
        (chainsynth.model, "reach_probability"), (cegar, "mdp_extremal"),
        (cegis, "extract_counterexample"), (enumeration, "realise"),
        (cegis.AssignmentSpace, "next_candidate"))}
    tracer = Tracer()
    small_run("many-small", 4, tracer=tracer)
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn
    before = {n: tracer.totals(n).calls for n in tracer.names}
    state, _, _ = small_run("many-small", 4)
    assert state.attempted == 12
    assert {n: tracer.totals(n).calls for n in tracer.names} == before


def benchmark_metric_names(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


# Per-layer metrics of a layer the workload never calls; 0 by construction.
# Every other declared metric must be nonzero on every workload.
NOT_CALLED = {
    "many-small": {"sketch.parse.s", "sketch.elaborate.s",
                   "sketch.elaborate.states"},
    "wide-family": {"sketch.parse.s", "sketch.elaborate.s",
                    "sketch.elaborate.states"},
    "deep-chain": set(),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_line_reports_every_declared_metric(workload):
    metrics, info, state, correct = run.run(workload, 0, 0.1, 0)
    assert correct and state.failed == 0, state.messages
    assert list(metrics) == benchmark_metric_names("end_to_end")
    assert all(v > 0 for v, _ in metrics.values()), metrics
    assert info["samples_beyond_p90"] >= 10
    metrics, info, state, correct = run.run(workload, 0, 0.1, 1)
    assert correct, state.messages
    assert list(metrics) == benchmark_metric_names("per_layer")
    zero = {name for name, (v, _) in metrics.items() if v == 0}
    assert zero == NOT_CALLED[workload]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
