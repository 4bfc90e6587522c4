"""Unit tests for the dataflow list scheduler."""

import itertools

import pytest

from repro.core import (
    AtomOp,
    AtomSpace,
    Dataflow,
    estimate_cycles,
    layered_dataflow,
    list_schedule,
)

SPACE = AtomSpace(["Load", "Pack", "Transform", "SATD"])


def chain(*kinds):
    ops = []
    prev = None
    for i, kind in enumerate(kinds):
        ops.append(AtomOp(f"op{i}", kind, (f"op{i-1}",) if prev is not None else ()))
        prev = i
    return Dataflow(ops)


class TestDataflow:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dataflow([AtomOp("a", "Pack"), AtomOp("a", "Pack")])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError):
            Dataflow([AtomOp("a", "Pack", deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dataflow(
                [AtomOp("a", "Pack", deps=("b",)), AtomOp("b", "Pack", deps=("a",))]
            )

    def test_executions_per_kind(self):
        df = chain("Load", "Pack", "Pack", "Transform")
        assert df.executions_per_kind() == {"Load": 1, "Pack": 2, "Transform": 1}

    def test_critical_path_of_chain(self):
        df = chain("Load", "Pack", "Transform")
        assert df.critical_path_cycles() == 3

    def test_critical_path_respects_latency(self):
        df = Dataflow(
            [AtomOp("a", "Load", latency=3), AtomOp("b", "Pack", deps=("a",), latency=2)]
        )
        assert df.critical_path_cycles() == 5

    def test_empty_dataflow(self):
        df = Dataflow([])
        assert df.critical_path_cycles() == 0
        assert estimate_cycles(df, SPACE.zero()) == 0


class TestListSchedule:
    def test_serialises_on_single_instance(self):
        # 4 independent Pack ops on 1 Pack instance -> 4 cycles.
        df = Dataflow([AtomOp(f"p{i}", "Pack") for i in range(4)])
        assert estimate_cycles(df, SPACE.molecule({"Pack": 1})) == 4

    def test_parallelises_with_more_instances(self):
        df = Dataflow([AtomOp(f"p{i}", "Pack") for i in range(4)])
        assert estimate_cycles(df, SPACE.molecule({"Pack": 2})) == 2
        assert estimate_cycles(df, SPACE.molecule({"Pack": 4})) == 1

    def test_extra_instances_beyond_parallelism_do_not_help(self):
        df = chain("Pack", "Pack", "Pack")
        assert estimate_cycles(df, SPACE.molecule({"Pack": 1})) == 3
        assert estimate_cycles(df, SPACE.molecule({"Pack": 3})) == 3

    def test_missing_instance_raises(self):
        df = chain("Pack", "Transform")
        with pytest.raises(ValueError):
            estimate_cycles(df, SPACE.molecule({"Pack": 1}))

    def test_unconstrained_kinds_are_unlimited(self):
        df = Dataflow(
            [AtomOp(f"l{i}", "Load") for i in range(8)]
            + [AtomOp("p", "Pack", deps=tuple(f"l{i}" for i in range(8)))]
        )
        cycles = estimate_cycles(
            df, SPACE.molecule({"Pack": 1}), unconstrained_kinds=["Load"]
        )
        assert cycles == 2  # all loads in parallel, then the pack

    def test_issue_overhead_added(self):
        df = chain("Pack")
        assert (
            estimate_cycles(df, SPACE.molecule({"Pack": 1}), issue_overhead=3) == 4
        )

    def test_monotone_in_resources(self):
        # More atoms never hurt: fundamental to the Pareto fronts of Fig.13.
        df = layered_dataflow([("Transform", 4, 2), ("Pack", 4, 1)])
        prev = None
        for t in (1, 2, 4):
            for p in (1, 2, 4):
                c = estimate_cycles(df, SPACE.molecule({"Transform": t, "Pack": p}))
                if prev is not None and t >= prev[0] and p >= prev[1]:
                    assert c <= prev[2]
                prev = (t, p, c)

    def test_schedule_respects_dependencies(self):
        df = layered_dataflow([("Transform", 4, 1), ("Pack", 2, 1)])
        sched = list_schedule(df, SPACE.molecule({"Transform": 2, "Pack": 2}))
        finish = {p.op_id: p.finish for p in sched.placements}
        start = {p.op_id: p.start for p in sched.placements}
        for op in df:
            for dep in op.deps:
                assert start[op.op_id] >= finish[dep]

    def test_schedule_no_instance_overlap(self):
        df = Dataflow([AtomOp(f"p{i}", "Pack") for i in range(6)])
        sched = list_schedule(df, SPACE.molecule({"Pack": 2}))
        for a, b in itertools.combinations(sched.placements, 2):
            if (a.kind, a.instance) == (b.kind, b.instance):
                assert a.finish <= b.start or b.finish <= a.start


class TestLayeredDataflow:
    def test_ht4x4_shape(self):
        # Paper: each HT_4x4 needs 4 Transform and 4 Pack executions.
        df = layered_dataflow([("Transform", 4, 1), ("Pack", 4, 1)])
        assert df.executions_per_kind() == {"Transform": 4, "Pack": 4}

    def test_fan_in_balanced(self):
        df = layered_dataflow([("Transform", 4, 1), ("SATD", 1, 1)])
        satd_ops = [op for op in df if op.kind == "SATD"]
        assert len(satd_ops) == 1
        assert len(satd_ops[0].deps) == 4

    def test_rejects_zero_executions(self):
        with pytest.raises(ValueError):
            layered_dataflow([("Pack", 0, 1)])

    def test_spatial_vs_temporal_tradeoff(self):
        # The Fig. 2 story: same dataflow, molecule size trades latency.
        df = layered_dataflow([("Transform", 4, 1), ("Pack", 4, 1)])
        seq = estimate_cycles(df, SPACE.molecule({"Transform": 1, "Pack": 1}))
        par = estimate_cycles(df, SPACE.molecule({"Transform": 4, "Pack": 4}))
        assert par < seq
