"""Timing harness and report schema for ``python -m repro bench``.

The harness produces one machine-readable report per suite run —
``BENCH_runtime.json`` by convention — so the project accumulates a
performance trajectory over time (CI uploads the report as an artifact
on every push).  The schema is deliberately small and stable:

.. code-block:: text

    schema_version     int     bumped only on breaking layout changes
    suite              str     h264 | aes | synthetic
    quick              bool    reduced iteration counts (CI mode)
    python / platform  str     environment fingerprint
    end_to_end         dict    wall time, trace size, simulated cycles
                               and throughput of one scenario run, plus
                               its rispp-verify replay verdict
    stages             list    per-stage micro-benchmarks
    totals             dict    aggregate wall time
    metrics            dict    deterministic repro.obs snapshot of one
                               instrumented (untimed) scenario run — the
                               same ``metrics`` key the chaos reports
                               carry (see repro.obs.exporters.snapshot)

Timing uses best-of-N ``perf_counter`` runs: the minimum is the least
noisy estimator of the achievable time on a shared machine.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.clock import perf_counter, utc_stamp
from ..sim.trace import Trace

SCHEMA_VERSION = 2


@dataclass
class StageResult:
    """Outcome of one timed stage (best-of-``repeats`` runs)."""

    name: str
    wall_s: float
    #: Work units performed inside one timed run.
    iterations: int
    repeats: int
    unit: str = "ops/s"
    extra: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.wall_s <= 0:
            return float("inf")
        return self.iterations / self.wall_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "iterations": self.iterations,
            "repeats": self.repeats,
            "throughput": round(self.throughput, 2),
            "unit": self.unit,
            "extra": self.extra,
        }


def time_stage(
    name: str,
    fn: Callable[[], Any],
    *,
    iterations: int,
    repeats: int = 3,
    unit: str = "ops/s",
    extra: dict | None = None,
) -> StageResult:
    """Time ``fn`` (one call performs ``iterations`` work units)."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return StageResult(
        name=name,
        wall_s=best,
        iterations=iterations,
        repeats=repeats,
        unit=unit,
        extra=extra or {},
    )


def time_best(fn: Callable[[], Any], *, repeats: int = 3) -> tuple[float, Any]:
    """Best wall time of ``fn`` over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result: Any = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def trace_signature(trace: Trace) -> list[tuple]:
    """A trace as comparable tuples (cycle, kind, task, si, detail).

    Each detail is read out as a plain dict, whether the trace stores it
    compactly (a shared items tuple), as the event's own dict or as a
    lazy factory, so two runtimes are equivalent iff their signatures
    are equal — the bench and the regression tests use this to prove the
    hot-path caches never change event semantics.
    """
    return [
        (e.cycle, e.kind.value, e.task, e.si, dict(e.detail))
        for e in trace
    ]


def build_report(
    suite: str,
    *,
    quick: bool,
    end_to_end: dict,
    stages: list[StageResult],
    metrics: dict | None = None,
) -> dict:
    """Assemble the schema-stable JSON report."""
    stage_dicts = [s.to_dict() for s in stages]
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "timestamp_utc": utc_stamp(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "end_to_end": end_to_end,
        "stages": stage_dicts,
        "totals": {
            "stage_wall_s": round(sum(s.wall_s for s in stages), 6),
            "stages": len(stages),
        },
        "metrics": metrics if metrics is not None else {},
    }


def render_report(report: dict) -> str:
    """Human-readable summary of a report (the CLI's default output)."""
    lines = [
        f"bench suite: {report['suite']}"
        + (" (quick)" if report.get("quick") else ""),
        f"python {report['python']} on {report['platform']}",
        "",
    ]
    e2e = report.get("end_to_end") or {}
    if e2e:
        lines.append(f"end-to-end: {e2e.get('scenario', '?')}")
        lines.append(f"  wall       {e2e['wall_s'] * 1000:10.1f} ms")
        lines.append(
            f"  throughput {e2e['cycles_per_sec']:,.0f} simulated cycles/s"
        )
        lines.append(
            "  trace verification: "
            + ("OK" if e2e["trace_verified"] else "FAILED")
            + f" ({e2e['trace_events']} events, "
            f"{len(e2e['verify_findings'])} finding(s))"
        )
        for finding in e2e["verify_findings"]:
            lines.append(f"    {finding}")
        lines.append("")
    if report.get("stages"):
        lines.append(f"{'stage':<24} {'wall [ms]':>12} {'throughput':>16}")
        for s in report["stages"]:
            lines.append(
                f"{s['name']:<24} {s['wall_s'] * 1000:>12.2f} "
                f"{s['throughput']:>12,.0f} {s['unit']}"
            )
    families = (report.get("metrics") or {}).get("metrics")
    if families is not None:
        lines.append("")
        lines.append(
            f"telemetry snapshot: {len(families)} metric families "
            "(repro.obs, deterministic series)"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
