"""Property: telemetry counts equal trace-event counts, and the
reference machine's replay accounting, for *any* interleaving of
forecast / execute_si / forecast_end / fail_container / wait operations."""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.machine import ReferenceMachine
from repro.bench.suites import build_synthetic_library
from repro.core import SILibrary
from repro.obs import MetricRegistry
from repro.runtime import RisppRuntime
from repro.sim import EventKind

CONTAINERS = 4
SIS = 3

#: One operation: (kind, subject index).  Indices wrap over the SIs
#: (or containers for "fail"), so every drawn pair is valid; "wait"
#: lets ``index + 1`` rotation times (~60k cycles each) pass, so
#: rotations land and executions upgrade to hardware.
_OP = st.tuples(
    st.sampled_from(["forecast", "execute", "end", "fail", "wait"]),
    st.integers(min_value=0, max_value=max(SIS, CONTAINERS) - 1),
)


def _library():
    """The synthetic library with its smallest molecules labelled: an
    execution's mode is then ``"SW"``, a label or ``"HW"`` (unlabelled)."""
    library = build_synthetic_library(kinds=5, sis=SIS)
    sis = []
    for si in library:
        base, *rest = si.implementations
        labelled = replace(base, label=f"{si.name}-base")
        sis.append(replace(si, implementations=(labelled, *rest)))
    return SILibrary(library.catalogue, sis)


def _drive(ops):
    """Apply an op sequence; return the registry and the runtime."""
    registry = MetricRegistry()
    runtime = RisppRuntime(_library(), CONTAINERS, metrics=registry)
    now = 0
    for kind, index in ops:
        if kind == "forecast":
            runtime.forecast(f"SI{index % SIS}", now, expected=16.0)
        elif kind == "execute":
            now += runtime.execute_si(f"SI{index % SIS}", now)
        elif kind == "end":
            runtime.forecast_end(f"SI{index % SIS}", now)
        elif kind == "wait":
            now += 60_000 * (index + 1)
        else:
            runtime.fail_container(index % CONTAINERS, now)
        now += 100
    return registry, runtime


def _events(runtime, kind):
    return sum(1 for e in runtime.trace if e.kind is kind)


@given(ops=st.lists(_OP, max_size=30))
@settings(max_examples=40, deadline=None)
def test_histogram_counts_equal_trace_event_counts(ops):
    registry, runtime = _drive(ops)
    assert registry.histogram("si_latency_cycles").count == _events(
        runtime, EventKind.SI_EXECUTED
    )
    assert registry.histogram("rotation_latency_cycles").count == _events(
        runtime, EventKind.ROTATION_COMPLETED
    )


@given(ops=st.lists(_OP, max_size=30))
@settings(max_examples=40, deadline=None)
def test_counters_equal_stats_and_trace(ops):
    registry, runtime = _drive(ops)
    execs = registry.counter("si_executions_total")
    assert execs.labels(mode="sw").current() == runtime.stats.sw_executions
    assert execs.labels(mode="hw").current() == runtime.stats.hw_executions
    events = registry.counter("forecast_events_total")
    assert events.labels(event="fired").current() == _events(
        runtime, EventKind.FORECAST
    )
    assert events.labels(event="ended").current() == _events(
        runtime, EventKind.FORECAST_END
    )
    assert registry.counter(
        "container_failures_total"
    ).current() == _events(runtime, EventKind.CONTAINER_FAILED)
    rotations = registry.counter("rotations_requested_total")
    assert (
        rotations.labels(kind="planned").current()
        + rotations.labels(kind="repair").current()
    ) == _events(runtime, EventKind.ROTATION_REQUESTED)


@given(ops=st.lists(_OP, max_size=30))
@example(ops=[("forecast", 0), ("wait", 3), ("execute", 0), ("wait", 3), ("execute", 0)])
@settings(max_examples=40, deadline=None)
def test_projection_equals_reference_replay_accounting(ops):
    """The trace-derived families equal the accounting of an independent
    replay: the reference machine re-derives each execution's mode and
    cycles from the events, not from the runtime's counters."""
    registry, runtime = _drive(ops)
    machine = ReferenceMachine(runtime.library, CONTAINERS)
    machine.replay(runtime.trace.rows())
    accounting = machine.accounting()
    execs = registry.counter("si_executions_total")
    assert execs.labels(mode="sw").current() == accounting["sw_executions"]
    assert execs.labels(mode="hw").current() == accounting["hw_executions"]
    cycles = registry.counter("si_cycles_total")
    assert (
        cycles.labels(mode="sw").current() + cycles.labels(mode="hw").current()
        == accounting["si_cycles"]
    )
    assert registry.histogram("si_latency_cycles").sum == accounting["si_cycles"]
    rotations = registry.counter("rotations_requested_total")
    assert (
        rotations.labels(kind="planned").current()
        + rotations.labels(kind="repair").current()
        == accounting["rotations_requested"]
    )
    assert (
        registry.counter("mode_switches_total").current()
        == accounting["mode_switches"]
    )


@given(ops=st.lists(_OP, max_size=20))
@settings(max_examples=25, deadline=None)
def test_deterministic_snapshot_is_reproducible(ops):
    from repro.obs import snapshot

    snap_a = snapshot(_drive(ops)[0])
    snap_b = snapshot(_drive(ops)[0])
    assert snap_a == snap_b
