"""Tests of the benchmark's own code: generators, checks and tracing."""

import dataclasses
import json

import numpy as np
import pytest

from posscheck import scan_axioms
from posscheck.markov import chain_report

from perfbench import checks, run, workloads
from perfbench.tracing import Tracer


def _same_ops(first, second):
    assert [(o.label, o.spec, o.eps) for o in first] == [(o.label, o.spec, o.eps) for o in second]
    for a, b in zip(first, second):
        assert a.schema == b.schema
        assert a.values.dtype == b.values.dtype and np.array_equal(a.values, b.values)
        assert (a.graph is None) == (b.graph is None)
        if a.graph is not None:
            assert a.graph.edges == b.graph.edges


@pytest.mark.parametrize("workload", ["markov-sparse", "markov-dense", "axiom-scan"])
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    ops = workloads.build(workload, 5, tmp_path)
    assert len(ops) >= 100
    _same_ops(ops, workloads.build(workload, 5, tmp_path))
    _same_ops(ops, workloads.build(workload, 5 + workloads.VARIANTS, tmp_path))
    other = workloads.build(workload, 6, tmp_path)
    assert any(not np.array_equal(a.values, b.values) for a, b in zip(ops, other))


def test_cli_generator_writes_identical_models(tmp_path):
    first = workloads.build("cli-factorize", 3, tmp_path / "a")
    second = workloads.build("cli-factorize", 3, tmp_path / "b")
    assert len(first) >= 100
    _same_ops(first, second)
    for a, b in zip(first, second):
        assert open(a.path, "rb").read() == open(b.path, "rb").read()


def test_cli_known_defect_models_stay_out_of_the_timed_list(tmp_path):
    ops = workloads.build("cli-factorize", 3, tmp_path / "a", known_defects=True)
    timed = [o for o in ops if not o.known_defect]
    defects = ops[len(timed):]
    _same_ops(timed, workloads.build("cli-factorize", 3, tmp_path / "b"))
    assert all(o.known_defect for o in defects)
    assert len(defects) == 13 and all(o.planted and o.n >= 11 for o in defects)
    assert all(o.n < 11 for o in timed if o.planted)
    assert any(o.n == 14 for o in timed)


def test_cli_goedel_and_crisp_models_factorize_only_when_planted(tmp_path):
    ops = workloads.build("cli-factorize", 3, tmp_path)
    checked = [o for o in ops if o.regime in ("godel", "crisp")]
    assert any(o.planted for o in checked) and any(not o.planted for o in checked)
    for o in checked:
        assert workloads.min_factorizes(o.values, o.graph, o.schema) == o.planted, o.label


def _planted_markov_op():
    ops = workloads.build("markov-sparse", 0, None)
    return next(o for o in ops if o.planted and o.spec == "product" and o.n == 6)


def test_markov_check_flags_a_wrong_verdict():
    op = _planted_markov_op()
    report = chain_report(op.fresh_table(), op.graph, op.tnorm)
    good = checks.check_markov(op, report, pinned="TTT")
    assert not good.failed and not good.wrong and good.verdict == "TTT"

    flipped = dataclasses.replace(
        report, global_report=dataclasses.replace(report.global_report, holds=False))
    bad = checks.check_markov(op, flipped, pinned="TTT")
    assert bad.wrong and bad.failed


def test_markov_check_flags_a_witness_that_holds():
    op = _planted_markov_op()
    report = chain_report(op.fresh_table(), op.graph, op.tnorm)
    statement = report.global_report.checked[0][0]
    fake = dataclasses.replace(
        report, pairwise_report=dataclasses.replace(
            report.pairwise_report, holds=False, witness=(statement, {})))
    outcome = checks.check_markov(op, fake, pinned="TTF")
    assert any("holds on re-check" in p for p in outcome.problems)


def test_global_statement_count_of_a_binary_product_chain():
    graph = workloads.chain(10)
    schema = workloads.schema_for([2] * 10)
    values, _ = workloads.planted_values(graph, schema, "product", np.random.default_rng(0))
    op = workloads.Op(0, "chain n=10", "product", schema, values, graph, planted=True)
    outcome = checks.check_markov(op, chain_report(op.fresh_table(), graph, op.tnorm))
    assert not outcome.failed
    assert outcome.facts["global_statements"] == 3036


def test_pinned_verdicts_decide_where_no_theorem_applies():
    ops = workloads.build("markov-sparse", 0, None)
    op = next(o for o in ops if not o.planted)
    report = chain_report(op.fresh_table(), op.graph, op.tnorm)
    verdict = checks.check_markov(op, report).verdict
    assert not checks.check_markov(op, report, pinned=verdict).wrong
    other = "".join("F" if c == "T" else "T" for c in verdict)
    assert checks.check_markov(op, report, pinned=other).wrong


def test_axiom_check_flags_a_violation_of_a_semigraphoid_axiom():
    ops = workloads.build("axiom-scan", 0, None)
    op = next(o for o in ops if o.n == 4 and o.positive and o.spec == "product")
    reports = scan_axioms(op.fresh_table(), op.tnorm, eps=op.eps)
    assert len(reports) == checks.scan_instances(op.n)
    assert not checks.check_axioms(op, reports, pinned="00000").failed

    index = next(i for i, r in enumerate(reports) if r.axiom == "weak_union")
    reports[index] = dataclasses.replace(reports[index], holds=False)
    outcome = checks.check_axioms(op, reports, pinned="00000")
    assert outcome.wrong and outcome.verdict == "00100"


def _godel_model(tmp_path):
    ops = workloads.build("cli-factorize", 0, tmp_path)
    op = next(o for o in ops if o.planted and o.regime == "godel" and o.n == 6)
    cliques = []
    for clique in op.graph.cliques():
        marginal = op.fresh_table().marginalize(clique)
        cliques.append({"vars": list(clique), "entries": marginal.values.ravel().tolist()})
    return ops, op, {"checks": [{"status": "yes", "factorization": {"cliques": cliques}}]}


def test_cli_check_flags_a_wrong_status_and_bad_factors(tmp_path):
    _, op, report = _godel_model(tmp_path)
    assert not checks.check_cli(op, (0, json.dumps(report), ""), pinned="yes").failed

    report["checks"][0]["factorization"]["cliques"][0]["entries"][0] += 0.25
    assert checks.check_cli(op, (0, json.dumps(report), ""), pinned="yes").failed
    no = {"checks": [{"status": "no"}]}
    assert checks.check_cli(op, (1, json.dumps(no), ""), pinned="yes").wrong
    assert checks.check_cli(op, (65, "", "posscheck: boom\n"), pinned="yes").failed


def test_judge_counts_only_failures_the_seed_code_had_as_expected(tmp_path):
    ops, op, report = _godel_model(tmp_path)
    report["checks"][0]["factorization"]["cliques"][0]["entries"][0] += 0.25
    bad_factors = (0, json.dumps(report), "")
    raised = RuntimeError("boom")
    passing = checks.Pins(["yes"] * len(ops), frozenset())
    assert checks.judge(checks.check_cli, op, bad_factors, passing).wrong
    assert checks.judge(checks.check_cli, op, raised, passing).wrong

    failing = checks.Pins(["yes"] * len(ops), frozenset({op.index}))
    outcome = checks.judge(checks.check_cli, op, bad_factors, failing)
    assert outcome.failed and not outcome.wrong
    assert checks.judge(checks.check_cli, op, raised, failing).wrong

    raising = checks.Pins(["error"] * len(ops), frozenset({op.index}))
    assert not checks.judge(checks.check_cli, op, raised, raising).wrong


def test_judge_counts_an_unpinned_raise_or_bad_witness_as_wrong():
    # Under Goedel no theorem fixes the verdict, so only the pins judge it.
    ops = workloads.build("markov-sparse", 0, None)
    op = next(o for o in ops if o.planted and o.spec == "godel" and o.n == 6)
    report = chain_report(op.fresh_table(), op.graph, op.tnorm)
    statement, holds = report.global_report.checked[0]
    assert holds
    fake = dataclasses.replace(
        report, pairwise_report=dataclasses.replace(
            report.pairwise_report, holds=False, witness=(statement, {})))
    pins = checks.Pins(["TTF"] * len(ops), frozenset())
    outcome = checks.judge(checks.check_markov, op, fake, pins)
    assert outcome.verdict == "TTF" and outcome.wrong
    assert checks.judge(checks.check_markov, op, ValueError("boom"), pins).wrong


def test_tracer_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer._enter("markov.global")
    inner = tracer._enter("possibility.marginalize")
    tracer._exit(inner)
    tracer._exit(outer)
    tracer.starts[:] = [0.0, 1.0]
    tracer.ends[:] = [10.0, 4.0]
    assert tracer.parents == [-1, 0]
    assert tracer.self_times() == [7.0, 3.0]


def test_tracer_counts_calls_and_restores_the_library():
    op = _planted_markov_op()
    original = type(op.fresh_table()).marginalize
    tracer = Tracer()
    with tracer.installed():
        report = chain_report(op.fresh_table(), op.graph, op.tnorm)
    assert type(op.fresh_table()).marginalize is original
    totals = tracer.totals()
    assert totals["markov.global"][0] == 1
    assert totals["possibility.marginalize"][0] > 0
    assert tracer.counters["marginalize.hits"] > 0
    assert len(report.global_report.checked) > 0


def test_harrell_davis_quantiles_follow_the_order_statistics():
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.hd_quantile([float(i) for i in range(101)], 0.9) == pytest.approx(90.0, abs=0.5)


def test_calibration_scales_by_the_reference_around_each_call():
    times = [1.0, 1.0, 1.0]
    slow = [2 * run.REFERENCE_S] * 4
    assert run.calibrated(times, slow) == pytest.approx([0.5, 0.5, 0.5])
