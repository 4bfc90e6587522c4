"""The metric catalogue: every telemetry series the platform may emit.

Like the rule registry of :mod:`repro.analysis` (``diag()`` refuses
unknown rule IDs), the observability layer refuses to create metrics it
has not declared: :meth:`repro.obs.MetricRegistry.counter` (etc.) raises
on names missing from :data:`METRICS`.  That keeps the catalogue in
``docs/observability.md``, the exporter schemas and the instrumentation
sites in sync — the CI docs job cross-checks all three.

Naming follows the Prometheus conventions: ``snake_case`` with the
``rispp_`` namespace prepended on export, ``_total`` suffix for
counters, an explicit unit in the name (``_cycles``, ``_seconds``,
``_ratio``).  Cycle-valued histograms use the shared power-of-four
bucket ladder :data:`CYCLE_BUCKETS` — rotation latencies span roughly
1e3..1e6 cycles (Table 1: 0.29–1.17 ms at 100 MHz), SI latencies
1e1..1e3, so one ladder covers both with useful resolution.

A spec marked ``deterministic=False`` (wall-clock span timers) is
excluded from deterministic snapshots so seeded reports stay
byte-identical; see :func:`repro.obs.exporters.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Prefix prepended to every metric name on export.
NAMESPACE = "rispp"

#: Shared bucket ladder for cycle-valued histograms (powers of four,
#: 1 .. 4^10 ≈ 1.05 M cycles, +Inf implied).
CYCLE_BUCKETS: tuple[float, ...] = tuple(float(4**i) for i in range(11))

#: Bucket ladder for wall-clock span timers, in seconds.
TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

#: Bucket ladder for serialized artifact sizes, in bytes (powers of
#: four, 1 KiB .. 256 MiB, +Inf implied).
BYTE_BUCKETS: tuple[float, ...] = tuple(float(1024 * 4**i) for i in range(10))

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    type: str
    help: str
    #: Unit of the recorded values (informational; also in the name).
    unit: str
    #: File that records the metric (repo-relative), for the catalogue.
    source: str
    #: Paper section the quantity reproduces or extends.
    paper: str
    labels: tuple[str, ...] = ()
    #: Histogram bucket upper bounds (+Inf implied); histograms only.
    buckets: tuple[float, ...] | None = None
    #: False for wall-clock-valued metrics, which deterministic
    #: snapshots (seeded chaos reports) must exclude.
    deterministic: bool = True
    #: Allowed values per label, in the order the exporters emit them
    #: when pre-registering children (keeps zero-valued series visible).
    label_values: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def full_name(self) -> str:
        return f"{NAMESPACE}_{self.name}"


def _spec(spec: MetricSpec, into: dict[str, MetricSpec]) -> None:
    if spec.name in into:
        raise ValueError(f"duplicate metric declaration {spec.name!r}")
    if spec.type not in (COUNTER, GAUGE, HISTOGRAM):
        raise ValueError(f"unknown metric type {spec.type!r}")
    if (spec.buckets is not None) != (spec.type == HISTOGRAM):
        raise ValueError(f"buckets are for histograms only ({spec.name})")
    into[spec.name] = spec


#: All declared metric families, by (namespace-less) name.
METRICS: dict[str, MetricSpec] = {}

for _s in (
    # -- run-time manager (repro/runtime/manager.py, paper §5) ------------
    MetricSpec(
        "si_executions_total", COUNTER,
        "SI executions by dispatch mode: software fallback vs a loaded "
        "hardware molecule (the gradual SW->HW upgrade mix of Fig. 6).",
        unit="executions", source="src/repro/runtime/manager.py",
        paper="§5", labels=("mode",),
        label_values={"mode": ("sw", "hw")},
    ),
    MetricSpec(
        "si_cycles_total", COUNTER,
        "Simulated cycles spent executing SIs, by dispatch mode.",
        unit="cycles", source="src/repro/runtime/manager.py",
        paper="§5", labels=("mode",),
        label_values={"mode": ("sw", "hw")},
    ),
    MetricSpec(
        "si_latency_cycles", HISTOGRAM,
        "Per-execution SI latency: software_cycles on fallback, the "
        "chosen molecule's cycles otherwise (§3.2).",
        unit="cycles", source="src/repro/runtime/manager.py",
        paper="§3.2/§5", buckets=CYCLE_BUCKETS,
    ),
    MetricSpec(
        "replans_total", COUNTER,
        "Molecule (re)selection rounds by outcome: planned, or skipped "
        "by the no-op signature cache (§5 task b).",
        unit="replans", source="src/repro/runtime/manager.py",
        paper="§5", labels=("outcome",),
        label_values={"outcome": ("planned", "skipped")},
    ),
    MetricSpec(
        "replan_duration_seconds", HISTOGRAM,
        "Wall-clock time of one selection + rotation-planning round "
        "(span timer; excluded from deterministic snapshots).",
        unit="seconds", source="src/repro/runtime/manager.py",
        paper="§5", buckets=TIME_BUCKETS, deterministic=False,
    ),
    MetricSpec(
        "rotations_requested_total", COUNTER,
        "Rotation jobs issued to the SelectMap port, by kind: planner "
        "jobs vs fault-recovery repair writes (§5 task c).",
        unit="rotations", source="src/repro/runtime/manager.py",
        paper="§5", labels=("kind",),
        label_values={"kind": ("planned", "repair")},
    ),
    MetricSpec(
        "mode_switches_total", COUNTER,
        "SI execution-mode transitions (SW <-> molecule labels), the "
        "Fig. 6 gradual-upgrade steps.",
        unit="switches", source="src/repro/runtime/manager.py",
        paper="§5/Fig. 6",
    ),
    MetricSpec(
        "forecast_events_total", COUNTER,
        "Forecast lifecycle events delivered to the run-time manager.",
        unit="events", source="src/repro/runtime/manager.py",
        paper="§4.2/§5", labels=("event",),
        label_values={"event": ("fired", "ended")},
    ),
    # -- reconfiguration port (repro/hardware/reconfig.py, §5) ------------
    MetricSpec(
        "port_queue_depth", GAUGE,
        "Rotation jobs pending on the single serialised SelectMap port "
        "(scheduled or in flight).",
        unit="jobs", source="src/repro/hardware/reconfig.py", paper="§5",
    ),
    MetricSpec(
        "rotation_latency_cycles", HISTOGRAM,
        "Request-to-finish latency of completed rotations: port queue "
        "delay plus the atom's bitstream write time.",
        unit="cycles", source="src/repro/hardware/reconfig.py",
        paper="§5/Table 1", buckets=CYCLE_BUCKETS,
    ),
    MetricSpec(
        "rotation_queue_delay_cycles", HISTOGRAM,
        "Request-to-start serialisation delay on the SelectMap port "
        "(0 when the port was idle).",
        unit="cycles", source="src/repro/hardware/reconfig.py",
        paper="§5", buckets=CYCLE_BUCKETS,
    ),
    MetricSpec(
        "port_busy_cycles_total", COUNTER,
        "Cycles the SelectMap port spent writing bitstreams "
        "(completed jobs only).",
        unit="cycles", source="src/repro/hardware/reconfig.py",
        paper="§5/Table 1",
    ),
    # -- fabric / Atom Containers (repro/hardware/fabric.py, §3/§5) -------
    MetricSpec(
        "containers_state", GAUGE,
        "Atom Containers by lifecycle state (callback gauge, sampled at "
        "collection).",
        unit="containers", source="src/repro/hardware/fabric.py",
        paper="§3/§5", labels=("state",),
        label_values={
            "state": ("loaded", "loading", "empty", "failed", "quarantined"),
        },
    ),
    MetricSpec(
        "fabric_utilisation_ratio", GAUGE,
        "Fraction of Atom Containers holding or loading an Atom — the "
        "run-time counterpart of the alpha*GE_max area argument (Fig. 1).",
        unit="ratio", source="src/repro/hardware/fabric.py",
        paper="§2/Fig. 1",
    ),
    MetricSpec(
        "container_churn_total", COUNTER,
        "Container content turnover: rotations begun plus evictions, "
        "summed over all Atom Containers (callback counter).",
        unit="mutations", source="src/repro/hardware/container.py",
        paper="§5",
    ),
    MetricSpec(
        "container_failures_total", COUNTER,
        "Atom Containers permanently retired (injected defects plus "
        "repair-exhaustion retirements).",
        unit="containers", source="src/repro/hardware/fabric.py",
        paper="robustness extension",
    ),
    # -- forecast monitor (repro/runtime/monitor.py, §5 task a) -----------
    MetricSpec(
        "forecast_error_abs", HISTOGRAM,
        "Per-window absolute forecast error |predicted - observed| at "
        "window close (the fine-tuning signal of §5 task a).",
        unit="executions", source="src/repro/runtime/monitor.py",
        paper="§5", buckets=CYCLE_BUCKETS,
    ),
    MetricSpec(
        "forecast_windows_total", COUNTER,
        "Closed forecast windows by outcome: hit (the SI executed at "
        "least once) vs miss.",
        unit="windows", source="src/repro/runtime/monitor.py",
        paper="§5", labels=("outcome",),
        label_values={"outcome": ("hit", "miss")},
    ),
    MetricSpec(
        "forecast_drift_ratio", GAUGE,
        "Running mean absolute forecast error per closed window — drift "
        "of the compile-time expectations against reality.",
        unit="executions", source="src/repro/runtime/monitor.py",
        paper="§5",
    ),
    # -- fault injector (repro/faults/injector.py, robustness) ------------
    MetricSpec(
        "faults_injected_total", COUNTER,
        "Delivered fault events by kind (regardless of effect).",
        unit="faults", source="src/repro/faults/injector.py",
        paper="robustness extension", labels=("kind",),
        label_values={"kind": ("transient", "write_error", "permanent")},
    ),
    MetricSpec(
        "repair_cycles", HISTOGRAM,
        "Injection-to-repair latency (MTTR) per repaired container; "
        "bounded by static_repair_bound.",
        unit="cycles", source="src/repro/faults/injector.py",
        paper="robustness extension", buckets=CYCLE_BUCKETS,
    ),
    MetricSpec(
        "quarantine_depth", GAUGE,
        "Atom Containers currently quarantined pending a repair "
        "rotation.",
        unit="containers", source="src/repro/faults/injector.py",
        paper="robustness extension",
    ),
    MetricSpec(
        "degraded_cycles_total", COUNTER,
        "Cycles with at least one corruption or quarantine episode open "
        "(the fabric ran degraded).",
        unit="cycles", source="src/repro/faults/injector.py",
        paper="robustness extension",
    ),
    MetricSpec(
        "explore_states_total", COUNTER,
        "States generated by the rispp-explore bounded model checker, "
        "split into newly visited states and deduplicated revisits.",
        unit="states", source="src/repro/analysis/explore.py",
        paper="§4/§5", labels=("outcome",),
        label_values={"outcome": ("visited", "deduplicated")},
    ),
    MetricSpec(
        "explore_violations_total", COUNTER,
        "MC-rule invariant violations found by rispp-explore (first "
        "finding per rule and run).",
        unit="violations", source="src/repro/analysis/explore.py",
        paper="§4/§5",
    ),
    # -- crash recovery (repro/recovery/runtime.py, robustness) -----------
    MetricSpec(
        "recovery_snapshot_bytes", HISTOGRAM,
        "Serialized size of one whole-world recovery snapshot.  Harness "
        "telemetry, not scenario state: excluded from deterministic "
        "snapshots so resumed reports stay byte-identical.",
        unit="bytes", source="src/repro/recovery/runtime.py",
        paper="robustness extension", buckets=BYTE_BUCKETS,
        deterministic=False,
    ),
    MetricSpec(
        "recovery_snapshot_duration_seconds", HISTOGRAM,
        "Wall-clock time to capture and write one recovery snapshot "
        "(span timer; excluded from deterministic snapshots).",
        unit="seconds", source="src/repro/recovery/runtime.py",
        paper="robustness extension", buckets=TIME_BUCKETS,
        deterministic=False,
    ),
    MetricSpec(
        "recovery_journal_records_total", COUNTER,
        "Commands appended to the write-ahead recovery journal "
        "(harness telemetry; excluded from deterministic snapshots).",
        unit="records", source="src/repro/recovery/runtime.py",
        paper="robustness extension", deterministic=False,
    ),
    MetricSpec(
        "recovery_journal_replay_total", COUNTER,
        "Journaled commands replayed onto a restored snapshot during "
        "resume (harness telemetry; excluded from deterministic "
        "snapshots).",
        unit="records", source="src/repro/recovery/runtime.py",
        paper="robustness extension", deterministic=False,
    ),
    MetricSpec(
        "recovery_resumes_total", COUNTER,
        "Runs resumed from a recovery store (harness telemetry; "
        "excluded from deterministic snapshots).",
        unit="resumes", source="src/repro/recovery/runtime.py",
        paper="robustness extension", deterministic=False,
    ),
    # -- scenario daemon (repro/serve/, docs/serving.md) ------------------
    MetricSpec(
        "serve_requests_total", COUNTER,
        "HTTP requests handled by the scenario daemon, by endpoint "
        "(service telemetry; request arrival is not seeded, so the "
        "series is excluded from deterministic snapshots).",
        unit="requests", source="src/repro/serve/daemon.py",
        paper="serving extension", labels=("endpoint",),
        label_values={
            "endpoint": (
                "healthz", "readyz", "metrics", "scenario", "shutdown",
                "other",
            ),
        },
        deterministic=False,
    ),
    MetricSpec(
        "serve_scenarios_total", COUNTER,
        "Scenario requests completed by the runtime facade, by outcome "
        "(service telemetry; excluded from deterministic snapshots).",
        unit="scenarios", source="src/repro/serve/facade.py",
        paper="serving extension", labels=("outcome",),
        label_values={"outcome": ("ok", "degraded", "error")},
        deterministic=False,
    ),
    MetricSpec(
        "serve_scenario_duration_seconds", HISTOGRAM,
        "Wall-clock time from scenario submission to rendered report "
        "(span timer; excluded from deterministic snapshots).",
        unit="seconds", source="src/repro/serve/facade.py",
        paper="serving extension", buckets=TIME_BUCKETS,
        deterministic=False,
    ),
    MetricSpec(
        "serve_workers", GAUGE,
        "Size of the scenario daemon's worker process pool (service "
        "telemetry; excluded from deterministic snapshots).",
        unit="workers", source="src/repro/serve/facade.py",
        paper="serving extension", deterministic=False,
    ),
):
    _spec(_s, METRICS)

del _s


def spec_of(name: str) -> MetricSpec:
    """Look up a declared metric; raise on unknown names."""
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}: declare it in repro/obs/catalogue.py "
            "first (the catalogue keeps docs/observability.md and the "
            "instrumentation in sync)"
        ) from None
