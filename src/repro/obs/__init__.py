"""repro.obs — the observability layer of the rotating fabric.

A metrics registry (:class:`MetricRegistry`: counters, gauges,
cycle-bucketed histograms, wall-clock span timers) instrumented at the
run-time system's hot seams — SI dispatch and replanning
(:mod:`repro.runtime.manager`), the serialised SelectMap port
(:mod:`repro.hardware.reconfig`), Atom Container occupancy and churn
(:mod:`repro.hardware.fabric`), forecast fine-tuning error
(:mod:`repro.runtime.monitor`) and fault recovery
(:mod:`repro.faults.injector`) — with exporters for the Prometheus text
exposition format and schema-stable JSONL snapshots.

Telemetry is off by default: every instrumented constructor takes
``metrics: MetricRegistry | None = None`` and falls back to the shared
:data:`DISABLED` registry, whose instruments are no-op singletons.
Families the run already keeps the state of — the trace's events, the
runtime and fault statistics, the container flags — are read at
collection time, so ``execute_si`` makes no instrument call either way.
Pass ``MetricRegistry()`` to turn the lights on — traces and simulation
results are bit-identical either way (metrics never feed back into
decisions).

``python -m repro metrics --suite h264|aes|synthetic [--format
prom|json]`` runs one shipped workload instrumented and prints the
export; ``python -m repro chaos`` embeds a deterministic snapshot under
its report's ``metrics`` key.
The metric catalogue with units, sources and paper references lives in
``docs/observability.md`` and is enforced by :mod:`repro.obs.catalogue`
(undeclared metric names are rejected at instrument creation).
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "catalogue": "CYCLE_BUCKETS METRICS MetricSpec NAMESPACE TIME_BUCKETS",
    "exporters": (
        "exposition_state parse_prometheus snapshot SNAPSHOT_KIND SNAPSHOT_SCHEMA_VERSION "
        "to_jsonl to_prometheus"
    ),
    "registry": "Counter DISABLED Gauge Histogram MetricRegistry NULL NullInstrument",
    "suites": "run_metrics_suite",
})
