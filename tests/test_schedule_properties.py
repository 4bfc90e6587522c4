"""Property tests for the dataflow list scheduler."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AtomSpace, layered_dataflow, list_schedule

KINDS = ["A", "B", "C"]
SPACE = AtomSpace(KINDS)


@st.composite
def random_layered(draw):
    n_stages = draw(st.integers(1, 4))
    stages = []
    for i in range(n_stages):
        kind = KINDS[draw(st.integers(0, len(KINDS) - 1))]
        executions = draw(st.integers(1, 6))
        latency = draw(st.integers(1, 3))
        stages.append((kind, executions, latency))
    return layered_dataflow(stages)


@st.composite
def dataflow_and_molecule(draw):
    df = draw(random_layered())
    needed = df.executions_per_kind()
    counts = {
        kind: draw(st.integers(1, max(needed[kind], 1)))
        for kind in needed
    }
    return df, SPACE.molecule(counts)


@settings(max_examples=80, deadline=None)
@given(dataflow_and_molecule())
def test_makespan_bounds(bundle):
    """critical path <= makespan <= serial execution."""
    df, molecule = bundle
    schedule = list_schedule(df, molecule)
    serial = sum(op.latency for op in df)
    assert df.critical_path_cycles() <= schedule.makespan <= serial


@settings(max_examples=80, deadline=None)
@given(dataflow_and_molecule())
def test_dependencies_and_capacity_respected(bundle):
    df, molecule = bundle
    schedule = list_schedule(df, molecule)
    start = {p.op_id: p.start for p in schedule.placements}
    finish = {p.op_id: p.finish for p in schedule.placements}
    # Every operation scheduled exactly once.
    assert set(start) == {op.op_id for op in df}
    # Dependencies never violated.
    for op in df:
        for dep in op.deps:
            assert start[op.op_id] >= finish[dep]
    # No two operations overlap on one atom instance.
    for a, b in itertools.combinations(schedule.placements, 2):
        if (a.kind, a.instance) == (b.kind, b.instance):
            assert a.finish <= b.start or b.finish <= a.start
    # No op runs on an instance index beyond the molecule's count.
    for p in schedule.placements:
        assert 0 <= p.instance < molecule.count(p.kind)


@settings(max_examples=60, deadline=None)
@given(random_layered())
def test_more_atoms_never_slower(df):
    needed = df.executions_per_kind()
    small = SPACE.molecule({k: 1 for k in needed})
    big = SPACE.molecule(dict(needed))
    small_span = list_schedule(df, small).makespan
    big_span = list_schedule(df, big).makespan
    assert big_span <= small_span
    # Full parallelism reaches the critical path exactly.
    assert big_span == df.critical_path_cycles()


@settings(max_examples=60, deadline=None)
@given(dataflow_and_molecule(), st.integers(0, 5))
def test_issue_overhead_is_additive(bundle, overhead):
    df, molecule = bundle
    base = list_schedule(df, molecule).makespan
    shifted = list_schedule(df, molecule, issue_overhead=overhead).makespan
    assert shifted == base + overhead
