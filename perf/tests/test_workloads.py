"""Seeded op lists and the oracles that judge each op."""

import json
from collections import Counter

import pytest

from perf.runner import Round, summarise
from perf.workloads import (
    WORKLOADS,
    ChaosVerify,
    CheckpointResume,
    OpResult,
    Serve,
    render_report,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_are_deterministic_in_the_seed_and_change_with_it(name):
    workload = WORKLOADS[name]()
    assert workload.ops(1) == workload.ops(1)
    assert workload.ops(1) != workload.ops(2)
    assert len(workload.ops(1)) == workload.ops_per_round


def _shape(name, ops):
    """What the seed must not change: the amount and mix of work."""
    if name == "h264-stream":
        return sorted(op.macroblocks for op in ops)
    if name == "phase-shift":
        return sorted((op.library, len(op.hot)) for op in ops)
    return Counter(op["suite"] if isinstance(op, dict) else op.suite for op in ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_are_stratified(name):
    workload = WORKLOADS[name]()
    assert _shape(name, workload.ops(1)) == _shape(name, workload.ops(7))


def _chaos_report(suite="synthetic", seed=5):
    from repro.faults import run_chaos_suite

    return run_chaos_suite(suite, seed=seed, fault_rate=50.0, quick=True)


def test_chaos_oracle_fails_a_tampered_report():
    workload = ChaosVerify()
    op = workload.ops(1)[0]
    report = _chaos_report()
    assert workload.inspect(op, report, first_round=True).ok
    report["functional"]["match"] = False
    assert not workload.inspect(op, report, first_round=True).ok


def test_serve_oracle_fails_a_tampered_or_refused_response():
    workload = Serve()
    op = {"suite": "synthetic", "seed": 5, "fault_rate": 50.0, "quick": True}
    body = render_report(_chaos_report())
    workload.references = {json.dumps(op, sort_keys=True): (0.1, body)}
    assert workload.inspect(op, (200, body), first_round=True).ok
    tampered = body.replace('"verified": true', '"verified": false')
    assert tampered != body
    assert not workload.inspect(op, (200, tampered), first_round=True).ok
    assert not workload.inspect(op, (503, body), first_round=True).ok


def test_resume_oracle_fails_a_report_that_differs_from_the_uninterrupted_run(tmp_path):
    workload = CheckpointResume(ops_per_round=3)
    workload.setup(tmp_path)
    ops = workload.ops(1)
    workload.warm_up(ops)
    workload.prepare(ops)
    _, _, raws = workload.run_round(ops)
    results = [workload.inspect(op, raw, first_round=True) for op, raw in zip(ops, raws)]
    assert all(result.ok for result in results)
    assert all(result.counts["snapshots"] > 0 for result in results)

    _, _, raws = workload.run_round(ops[:1])
    raws[0][2]["seed"] += 1  # the resumed report
    assert not workload.inspect(ops[0], raws[0], first_round=True).ok
    _, _, raws = workload.run_round(ops[:1])
    assert not workload.inspect(ops[0], (False,) + raws[0][1:], first_round=True).ok


def _result(digest, ok=True):
    return OpResult(ok=ok, digest=digest, si=10, cycles=100)


def test_an_op_that_diverges_from_round_one_counts_as_failed():
    workload = ChaosVerify(ops_per_round=3)
    first = Round(False, [0.1, 0.2], 0.3, [_result("a"), _result("b")], {}, {})
    second = Round(False, [0.1, 0.2], 0.3, [_result("a"), _result("c")], {}, {})
    third = Round(False, [0.1, 0.2], 0.3, [_result("a", ok=False), _result("b")], {}, {})
    out = summarise(workload, [first, second, third], trace=False)
    assert out["attempted"] == 6
    assert out["failed"] == 2
    assert not out["digest_stable"]
    assert out["metrics"]["fail_ratio"] == pytest.approx(2 / 6)
    assert out["metrics"]["sim_cycles"] == 200
