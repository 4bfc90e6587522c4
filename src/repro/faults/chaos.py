"""Chaos runs: seeded fault campaigns over the shipped suites.

``run_chaos_suite`` drives one of the three shipped suites
(:data:`repro.sim.suites.SUITES`) twice — once fault-free to fix the
campaign horizon and the functional baseline, once under a
:class:`FaultSchedule` drawn from the seed — then checks three things:

* the chaos trace replays cleanly through rispp-verify (including the
  quarantine/repair rules TRC014/TRC015);
* the run is functionally indistinguishable from the fault-free
  baseline (the same AES ciphertext environment, and the same SI
  execution count — every call completes);
* every observed repair landed within :func:`static_repair_bound`, the
  static worst case derived from the scrub period, the port backlog
  bound and the doubling retry backoff.

Reports are plain dicts of JSON-safe deterministic values (no
timestamps), so ``python -m repro chaos --seed N --format json`` is
byte-identical across runs — the acceptance gate of the fault work.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from ..commands import query
from ..core.library import SILibrary
from ..scenario import Scenario
from .injector import FaultInjector
from .model import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..recovery.runtime import RecoveryPlan
    from ..runtime.manager import RisppRuntime

CHAOS_SCHEMA_VERSION = 1
CHAOS_KIND = "rispp-chaos-report"

#: FEA005's failure budget: one container lost, echoed in the report.
SURVIVABLE_FAILURES = 1


def static_repair_bound(
    library: SILibrary,
    containers: int,
    *,
    scrub_period: int,
    max_retries: int,
    backoff_cycles: int,
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
) -> int:
    """Sound worst-case injection-to-repair latency, in cycles.

    A transient fault is detected at most ``scrub_period`` cycles after
    injection (the next readback pass).  The repair rotation then rides
    the normal serial port: one attempt costs at most the port backlog
    bound (``containers`` worst-case writes), and every mid-write fault
    costs one more attempt plus its backoff (``backoff_cycles``, doubling
    per attempt), up to ``max_retries`` extra attempts.  Summing the
    three terms bounds the MTTR of every *repaired* container; retired
    containers never count.  The port rate defaults to the shipped
    100 MHz SelectMap port.
    """
    from ..analysis.feasibility import port_backlog_bound

    backlog = port_backlog_bound(
        library, containers, core_mhz=core_mhz, bytes_per_us=bytes_per_us
    )
    backoff_total = sum(backoff_cycles * 2**i for i in range(max_retries))
    return scrub_period + (1 + max_retries) * backlog + backoff_total


# -- the chaos driver ---------------------------------------------------------


def _quiesce(
    runtime: "RisppRuntime",
    injector: FaultInjector,
    *,
    horizon: int,
    bound: int,
) -> int:
    """Advance past the campaign until recovery fully settles.

    Every scheduled fault lies before ``horizon``; each open episode
    resolves within ``bound`` cycles of its trigger, so a few bound-sized
    steps always drain the port, the scrubber queue and the retry list.
    Returns the cycle the run settled at (the degraded-time cut-off).
    """
    now = max(query(runtime, "last_cycle"), horizon)
    for _ in range(8):
        now += bound + injector.scrub_period
        runtime.advance(now)
        if (
            query(runtime, "port_idle")
            and query(runtime, "open_episodes") == 0
        ):
            break
    # Not journaled: finalize only runs after the journal is exhausted
    # (the drained handoff re-issues every journaled command first), so
    # a resumed run applies it exactly once, like the original would.
    injector.finalize(now)
    return now


def run_chaos_suite(
    name: str,
    *,
    seed: int,
    fault_rate: float = Scenario.fault_rate,
    quick: bool = Scenario.quick,
    scrub_period: int = Scenario.scrub_period,
    max_retries: int = Scenario.max_retries,
    backoff_cycles: int = Scenario.backoff_cycles,
    recovery: "RecoveryPlan | None" = None,
) -> dict[str, Any]:
    """One seeded chaos campaign over a shipped suite; returns the report.

    Deterministic in its arguments: same seed, same report — byte for
    byte once rendered with sorted keys.  A ``recovery`` plan journals
    and checkpoints the chaos run (the fault-free baseline re-runs from
    scratch — it is cheap and deterministic), folds rule TRC016 into the
    report's trace verdict, and keeps the report itself unchanged: a
    cleanly resumed campaign renders byte-identical to an uninterrupted
    one.
    """
    from ..analysis.feasibility import prove_feasibility
    from ..analysis.verify import verify_runtime
    from ..sim.suites import run_suite

    # Fault-free reference run (it refuses an unknown suite): fixes the
    # campaign horizon and the functional baseline the chaos run must match.
    baseline = run_suite(name, quick=quick)
    baseline_rt = baseline.runtime
    library = baseline_rt.library
    containers = len(baseline_rt.fabric)
    horizon = baseline_rt.trace.last_cycle

    schedule = FaultSchedule.generate(
        seed=seed, horizon=horizon, containers=containers, rate=fault_rate
    )
    injector = FaultInjector(
        schedule,
        scrub_period=scrub_period,
        max_retries=max_retries,
        backoff_cycles=backoff_cycles,
    )
    bound = static_repair_bound(
        library,
        containers,
        scrub_period=scrub_period,
        max_retries=max_retries,
        backoff_cycles=backoff_cycles,
    )

    # The chaos run proper — instrumented, so the report can embed a
    # deterministic telemetry snapshot (the shared ``metrics`` key).
    from ..obs.registry import MetricRegistry
    from ..obs.exporters import snapshot

    registry = MetricRegistry()
    chaos = run_suite(
        name,
        quick=quick,
        fault_injector=injector,
        metrics=registry,
        wrap=recovery.wrap if recovery is not None else None,
    )
    runtime = chaos.runtime
    # "Functionally equal": the same data environment (the AES
    # ciphertext; stream suites carry none) and every SI call completed,
    # exactly as many as fault-free.
    functional_match = chaos.env == baseline.env and (
        runtime.stats.si_executions == baseline_rt.stats.si_executions
    )
    settled_at = _quiesce(runtime, injector, horizon=horizon, bound=bound)

    verify_report = verify_runtime(runtime, subject=f"chaos:{name}")
    if recovery is not None:
        from ..recovery import verify_resume

        verify_report.merge(
            verify_resume(runtime, recovery.store, subject=f"chaos:{name}")
        )
        runtime.close()
    feasibility = prove_feasibility(
        library,
        containers,
        survivable_failures=SURVIVABLE_FAILURES,
        subject=f"chaos:{name}",
    )
    stats = injector.stats
    mttr_within_bound = stats.mttr_cycles_max <= bound
    return {
        "schema_version": CHAOS_SCHEMA_VERSION,
        "kind": CHAOS_KIND,
        "suite": name,
        "seed": seed,
        "quick": quick,
        "fault_rate": fault_rate,
        "containers": containers,
        "recovery": {
            "scrub_period": scrub_period,
            "max_retries": max_retries,
            "backoff_cycles": backoff_cycles,
            "survivable_failures": SURVIVABLE_FAILURES,
        },
        "horizon_cycles": horizon,
        "settled_cycle": settled_at,
        "schedule": {
            "events": len(schedule),
            "by_kind": schedule.counts(),
        },
        "resilience": stats.to_dict(),
        "repair_bound_cycles": bound,
        "mttr_within_bound": mttr_within_bound,
        "open_episodes": injector.open_episodes(),
        "trace": {
            "events": len(runtime.trace),
            "verified": verify_report.ok(),
            "findings": [d.render() for d in verify_report.errors()],
        },
        "feasibility": {
            "degraded_warnings": [
                d.render() for d in feasibility.report.by_rule("FEA005")
            ],
        },
        "functional": {
            "checked": True,
            "match": functional_match,
            "si_executions": runtime.stats.si_executions,
            "baseline_si_executions": baseline_rt.stats.si_executions,
        },
        "totals": asdict(runtime.stats),
        "metrics": snapshot(registry, deterministic_only=True),
    }


def chaos_ok(report: dict[str, Any]) -> bool:
    """The pass/fail verdict the CLI and CI turn into an exit code."""
    return bool(
        report["trace"]["verified"]
        and report["mttr_within_bound"]
        and report["functional"]["match"]
        and report["open_episodes"] == 0
    )


def render_chaos_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of one chaos report."""
    res = report["resilience"]
    lines = [
        f"chaos suite {report['suite']!r} "
        f"(seed {report['seed']}, rate {report['fault_rate']}/Mcycle, "
        f"{'quick' if report['quick'] else 'full'})",
        f"  horizon: {report['horizon_cycles']} cycles, "
        f"{report['schedule']['events']} scheduled fault(s) "
        f"{report['schedule']['by_kind']}",
        f"  injected: {res['faults_injected']} "
        f"(transient {res['transients']}, write-error {res['write_errors']}, "
        f"permanent {res['permanents']}; no-effect {res['faults_no_effect']})",
        f"  detected: {res['faults_detected']} "
        f"(overwritten first: {res['faults_overwritten']})",
        f"  quarantined: {res['containers_quarantined']}, "
        f"repaired: {res['containers_repaired']}, "
        f"retired: {res['containers_retired']}",
        f"  retries: {res['rotation_retries']}, "
        f"abandoned jobs: {res['jobs_abandoned']}",
        f"  degraded cycles: {res['degraded_cycles']}, "
        f"SW fallbacks due to faults: {res['sw_fallback_executions']}",
        f"  MTTR: mean {res['mttr_cycles']} cycles, "
        f"max {res['mttr_cycles_max']} "
        f"(static bound {report['repair_bound_cycles']}: "
        f"{'within' if report['mttr_within_bound'] else 'EXCEEDED'})",
        f"  trace: {report['trace']['events']} event(s), "
        f"verified: {report['trace']['verified']}",
    ]
    for finding in report["trace"]["findings"]:
        lines.append(f"    {finding}")
    for warning in report["feasibility"]["degraded_warnings"]:
        lines.append(f"  {warning}")
    functional = report["functional"]
    lines.append(
        f"  functional vs fault-free baseline: "
        f"{'match' if functional['match'] else 'MISMATCH'} "
        f"({functional['si_executions']} SI executions)"
    )
    lines.append(f"  verdict: {'PASS' if chaos_ok(report) else 'FAIL'}")
    return "\n".join(lines)
