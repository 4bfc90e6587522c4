"""The outside-in layer tracer: restoration and transparency."""

import pytest

from perf.trace import BINDINGS, KWDEFAULTS, LAYERS, LayerTracer, _resolve
from perf.workloads import ChaosVerify, H264Stream, PhaseShift


def _bindings():
    """``(owner dict, key, current value)`` for every binding the tracer patches."""
    found = []
    for _layer, owner, names in BINDINGS:
        namespace = _resolve(owner).__dict__
        found.extend((namespace, name, namespace[name]) for name in names)
    for _layer, owner, name, keyword in KWDEFAULTS:
        defaults = _resolve(owner).__dict__[name].__kwdefaults__
        found.append((defaults, keyword, defaults[keyword]))
    return found


def test_every_binding_is_patched_and_restored_by_identity():
    before = _bindings()
    with LayerTracer():
        inside = _bindings()
    after = _bindings()
    for (_, name, original), (_, _, patched) in zip(before, inside):
        assert patched is not original, name
        assert patched.__wrapped__ is original, name
    for (_, name, original), (_, _, restored) in zip(before, after):
        assert restored is original, name


def test_bindings_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(KeyError):
        with LayerTracer():
            raise KeyError("boom")
    assert all(
        restored is original
        for (_, _, original), (_, _, restored) in zip(before, _bindings())
    )


def test_self_times_partition_nested_spans():
    tracer = LayerTracer()
    outer = tracer.wrap("runtime.manager", lambda: inner())
    inner = tracer.wrap("sim.trace", lambda: sum(range(20_000)))
    outer()
    assert tracer.calls["runtime.manager"] == tracer.calls["sim.trace"] == 1
    assert tracer.self_s["sim.trace"] > 0
    assert tracer.self_s["runtime.manager"] >= 0
    assert set(tracer.calls) == set(LAYERS)


def _round(workload, ops, traced):
    if not traced:
        return workload.run_round(ops)
    tracer = LayerTracer()
    with tracer:
        result = workload.run_round(ops)
    return result, tracer


@pytest.mark.parametrize(
    "workload, size",
    [(H264Stream, 2), (PhaseShift, 24), (ChaosVerify, 3)],
    ids=["h264-stream", "phase-shift", "chaos-verify"],
)
def test_traced_and_untraced_runs_agree(tmp_path, workload, size):
    """Same trace signatures (digests), stats and reports either way."""
    bench = workload(ops_per_round=size)
    bench.setup(tmp_path)
    ops = bench.ops(seed=3)
    _, _, plain = _round(bench, ops, traced=False)
    (latencies, wall, traced), tracer = _round(bench, ops, traced=True)
    plain_results = [bench.inspect(op, raw, first_round=True) for op, raw in zip(ops, plain)]
    traced_results = [bench.inspect(op, raw, first_round=True) for op, raw in zip(ops, traced)]
    assert plain_results == traced_results
    assert all(result.ok for result in traced_results)
    assert tracer.calls["runtime.manager"] > 0
    assert 0 < sum(tracer.self_s.values()) <= wall
