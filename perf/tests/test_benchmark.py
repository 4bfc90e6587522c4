"""BENCHMARK.json against the code that measures it; compare verdicts."""

import json
import re

import pytest

from perf import BENCHMARK_JSON, DECLARED_JSON
from perf.__main__ import main, parser
from perf.compare import MIN_RUNS, CompareError, compare
from perf.runner import END_TO_END, ROUNDS, TIMING, measure, per_layer_units
from perf.workloads import WORKLOADS, PhaseShift

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def declared():
    return _load(BENCHMARK_JSON)


def test_benchmark_json_declares_what_the_code_measures(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_no_bound_is_widened_past_ten_percent_but_setups(declared):
    """A metric that cannot hold 10% is per-layer, not given a wider bound;
    only set-up time, which every run must report, takes the widest."""
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(bound <= 0.10 for name, bound in bounds.items() if name != "setup_s")
    assert not set(TIMING) & set(bounds)


def test_declared_json_holds_commands_seeds_and_the_layer_map(declared):
    extra = _load(DECLARED_JSON)
    assert extra["run"] == declared["command"]
    assert extra["trace"] == declared["command"] + ["--trace", "1"]
    run = parser().parse_args(["run"])
    assert run.seed == extra["seeds"]["default"] != extra["seeds"]["holdout"]

    metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = set(WORKLOADS)
    for entry in extra["moves"]:
        assert set(entry["move"]) <= metrics, entry
        assert {entry["on"], entry["control"]} <= workloads
        assert entry["on"] != entry["control"]
    assert set(extra["outcomes"] + extra["tracer"]) <= metrics
    # Every per-layer metric is an outcome, a tracer figure, or moves one
    # declared metric on one workload (its longest layer prefix decides).
    for entry in declared["per_layer"]:
        name = entry["name"]
        if name in extra["outcomes"] or name in extra["tracer"]:
            continue
        prefixes = [
            layer for move in extra["moves"] for layer in move["layers"]
            if name == layer or name.startswith(layer + ".")
        ]
        assert prefixes, f"{name} moves nothing"
        assert prefixes.count(max(prefixes, key=len)) == 1, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pooled_latencies_put_ten_samples_beyond_the_p90(name):
    assert WORKLOADS[name]().ops_per_round * ROUNDS >= 100


def test_a_traced_measurement_reports_every_declared_metric(declared):
    lines = []
    result = measure(
        PhaseShift(ops_per_round=24), seed=2,
        trace=True, setup_only=False, announce=lines.append,
    )
    assert lines == ["ready"]
    assert result["failed"] == 0 and result["digest_stable"]
    assert result["rounds"] == ROUNDS and result["samples"] == 24 * ROUNDS
    assert set(result["per_layer"]) == {m["name"] for m in declared["per_layer"]}
    assert set(TIMING) <= set(result["metrics"])
    assert result["per_layer"]["core.backend.calls"] > 0
    assert result["per_layer"]["analysis.verify.calls"] == 0


def test_run_refuses_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("perf.__main__.SRC", tmp_path)
    assert main(["run", "--workload", "serve"]) == 2
    assert capsys.readouterr().out == ""


def test_run_refuses_a_run_length_other_than_the_declared_one(declared, capsys):
    assert main(["run", "--workload", "serve", "--seconds",
                 str(declared["run_seconds"] + 1)]) == 2
    assert capsys.readouterr().out == ""


def _set(runs=MIN_RUNS, seed=1, **metrics):
    """A result file: ``runs`` runs of workload ``w``; a metric given as
    a list takes one value per run."""
    base = {"setup_s": 1.0, "peak_rss_mb": 50.0, "sim_si_per_s": 1000.0,
            "op_s.p50": 0.1, "op_s.p90": 0.2, "sim_cycles": 100,
            "fail_ratio": 0.0, **metrics}
    return {"seed": seed, "trace": False, "workloads": {"w": [
        {
            "rounds": ROUNDS, "samples": 100, "digest": "d" * 64,
            "metrics": {
                name: value[i] if isinstance(value, list) else value
                for name, value in base.items()
            },
        }
        for i in range(runs)
    ]}}


def _verdicts(before, after, declared):
    rows, failing = compare(before, after, declared)
    return {row["metric"]: row["verdict"] for row in rows}, failing


def test_compare_judges_each_end_to_end_metric_by_its_bound(declared):
    verdicts, failing = _verdicts(_set(), _set(), declared)
    assert {verdicts[name] for name in END_TO_END} == {"same"}
    assert {verdicts[name] for name in TIMING} == {"info"}
    assert not failing

    verdicts, failing = _verdicts(
        _set(), _set(setup_s=2.0, peak_rss_mb=40.0, **{"op_s.p50": 0.5}), declared
    )
    assert verdicts["setup_s"] == "worse"
    assert verdicts["peak_rss_mb"] == "better"
    assert verdicts["op_s.p50"] == "info"
    assert failing


def test_compare_needs_a_spread_between_runs(declared):
    """One run per side, or runs that disagree by more than the bound,
    give no verdict, unless every run of AFTER beats every one of BEFORE."""
    verdicts, failing = _verdicts(_set(runs=1), _set(runs=1, setup_s=5.0), declared)
    assert verdicts["setup_s"] == "unresolved" and not failing

    noisy = _set(setup_s=[0.5, 1.0, 2.0])
    verdicts, _ = _verdicts(_set(), noisy, declared)
    assert verdicts["setup_s"] == "unresolved"
    verdicts, _ = _verdicts(noisy, _set(setup_s=0.25), declared)
    assert verdicts["setup_s"] == "better"


def test_compare_refuses_sets_measured_differently(declared):
    with pytest.raises(CompareError, match="seed"):
        compare(_set(seed=1), _set(seed=2), declared)
    other_work = _set()
    other_work["workloads"]["w"][0]["samples"] = 80
    with pytest.raises(CompareError, match="amounts of work"):
        compare(_set(), other_work, declared)


def test_compare_fails_on_more_failures_or_cycles_and_flags_digests(declared):
    declared = dict(declared, end_to_end=[])
    after = _set(fail_ratio=0.01)
    for run in after["workloads"]["w"]:
        run["digest"] = "e" * 64
    verdicts, failing = _verdicts(_set(), after, declared)
    assert verdicts["sim_cycles"] == "same"
    assert verdicts["fail_ratio"] == "worse"
    assert verdicts["digest"] == "CHANGED"
    assert failing

    verdicts, failing = _verdicts(_set(), _set(sim_cycles=[100, 100, 101]), declared)
    assert verdicts["sim_cycles"] == "UNSTABLE" and failing
