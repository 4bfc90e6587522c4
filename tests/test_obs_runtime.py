"""Telemetry wired through the runtime: counts match the trace/stats,
and metrics never perturb simulation semantics (trace equivalence)."""

import pytest

from repro.bench.harness import trace_signature
from repro.bench.suites import build_synthetic_library
from repro.obs import MetricRegistry
from repro.obs.registry import Counter, Gauge, Histogram
from repro.runtime import RisppRuntime
from repro.sim import EventKind
from repro.sim.suites import run_si_stream, si_stream

# The proven synthetic stream of the chaos suites: strong enough
# loop-head forecasts that rotations land and executions upgrade to HW.
FORECASTS = [("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0)]
BLOCKS = [("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1)]


@pytest.fixture(scope="module")
def instrumented():
    registry = MetricRegistry()
    runtime = run_si_stream(
        build_synthetic_library(),
        si_stream(FORECASTS, BLOCKS, rounds=6),
        containers=5,
        metrics=registry,
    )
    end = runtime.trace.last_cycle + 1
    for si_name, _ in FORECASTS:
        runtime.forecast_end(si_name, end)
    if runtime.port.jobs:  # drain in-flight rotations
        runtime.advance(max(j.finish_at for j in runtime.port.jobs) + 1)
    return registry, runtime


def _events(runtime, kind):
    return sum(1 for e in runtime.trace if e.kind is kind)


class TestCountsMatchTheRun:
    def test_execution_counters_match_stats(self, instrumented):
        registry, runtime = instrumented
        execs = registry.counter("si_executions_total")
        sw = execs.labels(mode="sw").current()
        hw = execs.labels(mode="hw").current()
        assert sw == runtime.stats.sw_executions
        assert hw == runtime.stats.hw_executions
        assert sw + hw == runtime.stats.si_executions
        assert hw > 0  # rotations landed: the stream did upgrade

    def test_execution_cycles_match_stats(self, instrumented):
        registry, runtime = instrumented
        cycles = registry.counter("si_cycles_total")
        total = (
            cycles.labels(mode="sw").current()
            + cycles.labels(mode="hw").current()
        )
        assert total == runtime.stats.si_cycles

    def test_latency_histogram_counts_every_execution(self, instrumented):
        registry, runtime = instrumented
        hist = registry.histogram("si_latency_cycles")
        assert hist.count == _events(runtime, EventKind.SI_EXECUTED)
        assert hist.count == runtime.stats.si_executions
        assert hist.sum == runtime.stats.si_cycles

    def test_replan_counters_match_stats(self, instrumented):
        registry, runtime = instrumented
        replans = registry.counter("replans_total")
        assert (
            replans.labels(outcome="planned").current()
            == runtime.stats.replans
        )
        assert (
            replans.labels(outcome="skipped").current()
            == runtime.stats.replans_skipped
        )
        # Steady-state loop-head forecasts must hit the skip cache.
        assert replans.labels(outcome="skipped").current() > 0

    def test_rotation_counters_match_trace(self, instrumented):
        registry, runtime = instrumented
        rotations = registry.counter("rotations_requested_total")
        requested = (
            rotations.labels(kind="planned").current()
            + rotations.labels(kind="repair").current()
        )
        assert requested == runtime.stats.rotations_requested
        assert requested == _events(runtime, EventKind.ROTATION_REQUESTED)
        # No injector attached: nothing may claim to be a repair.
        assert rotations.labels(kind="repair").current() == 0

    def test_port_histograms_count_completed_rotations(self, instrumented):
        registry, runtime = instrumented
        completed = _events(runtime, EventKind.ROTATION_COMPLETED)
        assert registry.histogram(
            "rotation_latency_cycles"
        ).count == completed
        assert registry.histogram(
            "rotation_queue_delay_cycles"
        ).count == completed
        assert registry.gauge("port_queue_depth").current() == 0

    def test_mode_switches_match_stats(self, instrumented):
        registry, runtime = instrumented
        assert (
            registry.counter("mode_switches_total").current()
            == runtime.stats.mode_switches
        )

    def test_forecast_events_match_trace(self, instrumented):
        registry, runtime = instrumented
        events = registry.counter("forecast_events_total")
        assert events.labels(event="fired").current() == _events(
            runtime, EventKind.FORECAST
        )
        assert events.labels(event="ended").current() == _events(
            runtime, EventKind.FORECAST_END
        )

    def test_forecast_windows_close_once_per_fired_window(self, instrumented):
        registry, runtime = instrumented
        windows = registry.counter("forecast_windows_total")
        closed = (
            windows.labels(outcome="hit").current()
            + windows.labels(outcome="miss").current()
        )
        # A window closes when its forecast re-fires (fine-tuning) or
        # explicitly ends; every fired window was closed by the drain.
        assert closed == _events(runtime, EventKind.FORECAST)
        assert registry.histogram("forecast_error_abs").count == closed

    def test_fabric_gauges_reflect_final_state(self, instrumented):
        registry, runtime = instrumented
        states = registry.gauge("containers_state")
        by_state = {
            key[0]: child.current() for key, child in states.children()
        }
        assert sum(by_state.values()) == len(runtime.fabric)
        assert by_state["failed"] == 0  # fault-free run
        assert by_state["loaded"] > 0  # rotations landed
        utilisation = registry.gauge("fabric_utilisation_ratio").current()
        assert 0.0 <= utilisation <= 1.0
        assert registry.counter("container_churn_total").current() > 0

    def test_no_faults_means_quiet_fault_metrics(self, instrumented):
        registry, _runtime = instrumented
        assert registry.counter("container_failures_total").current() == 0
        injected = registry.counter("faults_injected_total")
        assert all(
            child.current() == 0 for _, child in injected.children()
        )


@pytest.fixture(scope="module")
def faulted():
    """The quick synthetic chaos run at seed 5 and CI's fault rate, run
    until it settles: it quarantines, repairs and retires containers."""
    from repro.faults import FaultInjector, FaultSchedule
    from repro.sim.suites import run_suite

    schedule = FaultSchedule.generate(seed=5, horizon=852_370, containers=5, rate=50.0)
    registry = MetricRegistry()
    runtime = run_suite(
        "synthetic", quick=True, fault_injector=FaultInjector(schedule), metrics=registry
    ).runtime
    # Let the scrubber find the last corruptions and the repairs land.
    runtime.advance(runtime.trace.last_cycle + 1_000_000)
    return registry, runtime


class TestFaultFamiliesMatchTheRun:
    def test_repair_rotations_are_split_out(self, faulted):
        registry, runtime = faulted
        repairs = sum(
            1
            for e in runtime.trace.of_kind(EventKind.ROTATION_REQUESTED)
            if e.detail.get("repair")
        )
        rotations = registry.counter("rotations_requested_total")
        assert rotations.labels(kind="repair").current() == repairs > 0
        assert rotations.labels(kind="planned").current() == (
            runtime.stats.rotations_requested - repairs
        )

    def test_fault_families_equal_the_injector_state(self, faulted):
        registry, runtime = faulted
        stats = runtime._faults.stats
        injected = registry.counter("faults_injected_total")
        assert [
            injected.labels(kind=kind).current()
            for kind in ("transient", "write_error", "permanent")
        ] == [stats.transients, stats.write_errors, stats.permanents]
        repair = registry.histogram("repair_cycles")
        assert repair.count == stats.containers_repaired > 0
        assert repair.sum == stats.mttr_cycles_total
        assert registry.counter("degraded_cycles_total").current() == (
            stats.degraded_cycles
        ) > 0
        assert registry.gauge("quarantine_depth").current() == len(
            runtime._faults._quarantined
        )
        assert registry.counter("container_failures_total").current() == _events(
            runtime, EventKind.CONTAINER_FAILED
        )


class TestTraceEquivalence:
    def test_metrics_do_not_perturb_the_trace(self):
        """Telemetry on the fault paths (injections, quarantines, repairs)
        must not change what the runtime does either."""
        from repro.faults import FaultInjector, FaultSchedule

        library = build_synthetic_library()
        schedule = FaultSchedule.generate(
            seed=5, horizon=852_370, containers=5, rate=20.0
        )

        def run(metrics):
            return run_si_stream(
                library, si_stream(FORECASTS, BLOCKS, rounds=6),
                containers=5, metrics=metrics,
                fault_injector=FaultInjector(FaultSchedule(list(schedule))),
            )

        plain, instrumented_rt = run(None), run(MetricRegistry())
        assert plain._faults.stats.faults_injected > 0
        assert plain.stats.hw_executions > 0
        assert trace_signature(plain.trace) == trace_signature(
            instrumented_rt.trace
        )

    def test_disabled_and_enabled_runs_are_trace_identical(self):
        library = build_synthetic_library()
        plain = run_si_stream(
            library, si_stream(FORECASTS, BLOCKS, rounds=4), containers=5,
        )
        instrumented_rt = run_si_stream(
            library, si_stream(FORECASTS, BLOCKS, rounds=4), containers=5,
            metrics=MetricRegistry(),
        )
        assert trace_signature(plain.trace) == trace_signature(
            instrumented_rt.trace
        )


class TestNoTelemetryPerExecution:
    def test_execute_si_makes_no_instrument_call(self, monkeypatch):
        """Every family an execution feeds is read at collection time, so
        with an *enabled* registry a burst of HW executions on a primed
        runtime calls no instrument method at all."""
        registry = MetricRegistry()
        rt = RisppRuntime(
            build_synthetic_library(), 5, core_mhz=100.0, metrics=registry
        )
        for si_name, expected in FORECASTS:
            rt.forecast(si_name, 0, expected=expected)
        exec_si = FORECASTS[0][0]
        # Primed: rotations have landed and the mode has settled.
        now = max(j.finish_at for j in rt.port.jobs) + 1
        now += rt.execute_si(exec_si, now)
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapper

        for cls in (Counter, Gauge, Histogram):
            for name in (
                "labels", "inc", "dec", "set", "observe", "time",
                "set_callback", "current", "cumulative",
            ):
                if hasattr(cls, name):
                    monkeypatch.setattr(
                        cls, name, counted(f"{cls.__name__}.{name}", getattr(cls, name))
                    )
        hw_before = rt.stats.hw_executions
        for _ in range(200):
            now += rt.execute_si(exec_si, now)
        assert rt.stats.hw_executions - hw_before == 200
        assert calls == []
        # The patch sees instrument calls: collection makes some.
        hw = registry.counter("si_executions_total").labels(mode="hw")
        assert hw.current() == rt.stats.hw_executions
        assert calls
