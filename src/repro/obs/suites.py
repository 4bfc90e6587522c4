"""Instrumented workloads behind ``python -m repro metrics``.

``repro metrics --suite S`` is chaos suite S's fault-free run
(:func:`repro.sim.suites.run_suite`) with a live
:class:`~repro.obs.MetricRegistry` attached.  The runs are deterministic
(simulated cycles only), so two invocations of the same suite produce
identical deterministic snapshots — the exporter round-trip tests rely
on that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.manager import RisppRuntime


def run_metrics_suite(
    name: str, *, quick: bool = False
) -> tuple[MetricRegistry, "RisppRuntime"]:
    """Run one named suite instrumented; returns (registry, runtime)."""
    from ..sim.suites import run_suite

    registry = MetricRegistry()
    runtime = run_suite(name, quick=quick, metrics=registry).runtime
    # A window that never closes would leave the forecast metrics silently
    # empty; the AES flow ends with SUBBYTES still forecast (the stream
    # suites close their own windows).
    now = runtime.trace.events[-1].cycle + 1 if len(runtime.trace) else 0
    for fc in list(runtime.active_forecasts()):
        runtime.forecast_end(fc.si_name, now, task=fc.task)
        now += 1
    return registry, runtime
