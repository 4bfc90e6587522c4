"""Instrumented workloads behind ``python -m repro metrics``.

Each suite runs one of the repo's standard scenarios (the same ones
``repro verify`` and ``repro chaos`` drive) with a live
:class:`~repro.obs.MetricRegistry` attached and returns it together with
the runtime, so the CLI can export whatever the run recorded.  Open forecast windows are closed at the end
of a run — a window that never closes would leave the forecast metrics
silently empty.

The runs are deterministic (simulated cycles only), so two invocations
of the same suite produce identical deterministic snapshots — the
exporter round-trip tests rely on that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.library import SILibrary
    from ..runtime.manager import RisppRuntime


def _close_forecasts(rt: "RisppRuntime", now: int) -> int:
    """End every still-active forecast so its window is accounted."""
    for fc in list(rt.active_forecasts()):
        rt.forecast_end(fc.si_name, now, task=fc.task)
        now += 1
    return now


def _stream_suite(
    registry: MetricRegistry,
    library: "SILibrary",
    forecasts: list[tuple[str, float]],
    blocks: list[tuple[str, int]],
    *,
    containers: int,
    rounds: int,
) -> "RisppRuntime":
    from ..bench.suites import run_si_stream

    rt = run_si_stream(
        library,
        forecasts,
        blocks,
        containers=containers,
        block_rounds=rounds,
        metrics=registry,
    )
    end = rt.trace.events[-1].cycle + 1 if len(rt.trace) else 0
    _close_forecasts(rt, end)
    return rt


def run_h264_metrics(registry: MetricRegistry, *, quick: bool = False) -> "RisppRuntime":
    """The Fig. 7 macroblock SI stream, instrumented."""
    from ..apps.h264 import build_h264_library
    from ..bench.suites import H264_MACROBLOCK_CALLS

    return _stream_suite(
        registry,
        build_h264_library(),
        [("SATD_4x4", 256.0), ("DCT_4x4", 24.0), ("HT_4x4", 1.0), ("HT_2x2", 2.0)],
        list(H264_MACROBLOCK_CALLS),
        containers=6,
        rounds=4 if quick else 16,
    )


def run_aes_metrics(registry: MetricRegistry, *, quick: bool = False) -> "RisppRuntime":
    """The full AES compile-then-run flow, instrumented."""
    import warnings

    from ..apps.aes import build_aes_library, build_aes_program, default_aes_fdfs
    from ..sim.integration import compile_and_run

    def env_factory(i: int) -> dict[str, bytes]:
        return {
            "plaintext": bytes([i % 256] * 16),
            "key": bytes([(255 - i) % 256] * 16),
        }

    with warnings.catch_warnings():
        # Library advisories belong to `repro lint`, not metrics output.
        warnings.simplefilter("ignore")
        flow = compile_and_run(
            build_aes_program(),
            build_aes_library(),
            default_aes_fdfs(),
            containers=6,
            profile_env_factory=env_factory,
            run_env={"plaintext": b"\x21" * 16, "key": b"\x42" * 16},
            profile_runs=2,
            metrics=registry,
        )
    rt = flow.runtime
    end = rt.trace.events[-1].cycle + 1 if len(rt.trace) else 0
    _close_forecasts(rt, end)
    return rt


def run_synthetic_metrics(
    registry: MetricRegistry, *, quick: bool = False
) -> "RisppRuntime":
    """The generated synthetic library's SI stream, instrumented."""
    from ..bench.suites import build_synthetic_library

    return _stream_suite(
        registry,
        build_synthetic_library(),
        [("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0)],
        [("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1)],
        containers=5,
        rounds=5 if quick else 20,
    )


METRIC_SUITES: dict[str, Callable[..., "RisppRuntime"]] = {
    "h264": run_h264_metrics,
    "aes": run_aes_metrics,
    "synthetic": run_synthetic_metrics,
}


def run_metrics_suite(
    name: str, *, quick: bool = False
) -> tuple[MetricRegistry, "RisppRuntime"]:
    """Run one named suite instrumented; returns (registry, runtime)."""
    try:
        suite = METRIC_SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown metrics suite {name!r}; choose from {sorted(METRIC_SUITES)}"
        ) from None
    registry = MetricRegistry()
    runtime = suite(registry, quick=quick)
    return registry, runtime
