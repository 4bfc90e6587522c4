"""The three shipped scenarios, defined once for chaos, verify and metrics.

* ``aes`` — the Fig. 3 compile-then-run flow on one AES block;
* ``h264`` — the Fig. 7 macroblock SI mix on 6 containers;
* ``synthetic`` — the generated library's SI stream on 5 containers.

The stream suites fire one loop-head forecast per SI and round, each
predicting that round's call count exactly, and close every window at
the last traced cycle.  A stream is a one-task script
(:func:`si_stream`), and :func:`run_si_stream` is the one loop that
drives a script against a fresh runtime.  Heavy imports sit inside the
functions, so importing this module loads no application or benchmark
code.  The suite names, :data:`SUITES`, are declared in
:mod:`repro.scenario`.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..commands import Forecast, query
from ..scenario import SUITES
from .task import Action, Compute, ExecuteSI, MultiTaskSimulator, ScriptedTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.library import SILibrary
    from ..runtime.manager import RisppRuntime

#: Stream suites: ``(containers, quick rounds, full rounds)``.
_STREAMS = {"h264": (6, 3, 8), "synthetic": (5, 6, 20)}

#: One synthetic round: the call mix of the generated library's SIs.
_SYNTHETIC_CALLS = (("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1))


@dataclass(frozen=True)
class SuiteRun:
    """One finished suite run: the runtime, plus for ``aes`` the data
    environment (plaintext, key, ciphertext) and the Forecast points."""

    runtime: "RisppRuntime"
    env: dict[str, Any] | None = None
    placements: list[object] = field(default_factory=list)


def suite_library(name: str) -> "SILibrary":
    """The shipped SI library behind one suite."""
    if name == "aes":
        from ..apps.aes.blocks import build_aes_library

        return build_aes_library()
    if name == "h264":
        from ..apps.h264.sis import build_h264_library

        return build_h264_library()
    if name == "synthetic":
        from ..bench.suites import build_synthetic_library

        return build_synthetic_library()
    raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")


def run_suite(
    name: str,
    *,
    quick: bool,
    energy_model: Any = None,
    fault_injector: Any = None,
    metrics: Any = None,
    wrap: "Callable[[RisppRuntime], Any] | None" = None,
) -> SuiteRun:
    """Run one shipped suite; the keywords pass through to the runtime.

    ``quick`` picks the stream suites' reduced round count; one AES
    block is already CI-sized, so ``aes`` ignores it.  ``wrap`` is the
    recovery hook (:meth:`repro.recovery.RecoveryPlan.wrap`).
    """
    runtime_kwargs: dict[str, Any] = {
        "energy_model": energy_model,
        "fault_injector": fault_injector,
        "metrics": metrics,
        "wrap": wrap,
    }
    if name == "aes":
        return _run_aes(**runtime_kwargs)
    from ..bench.suites import H264_MACROBLOCK_CALLS

    library = suite_library(name)  # raises on an unknown suite
    containers, quick_rounds, full_rounds = _STREAMS[name]
    calls = H264_MACROBLOCK_CALLS if name == "h264" else _SYNTHETIC_CALLS
    forecasts = [(si_name, float(n)) for si_name, n in calls]
    rounds = quick_rounds if quick else full_rounds
    runtime = run_si_stream(
        library,
        si_stream(forecasts, calls, rounds=rounds),
        containers=containers,
        **runtime_kwargs,
    )
    # Journaled state query: on a resumed run the underlying runtime is
    # already past this point, so the answer must come from the journal.
    end = query(runtime, "last_cycle")
    for si_name, _ in forecasts:
        runtime.forecast_end(si_name, end)
    return SuiteRun(runtime)


def si_stream(
    forecasts: Iterable[tuple[str, float]],
    blocks: Iterable[tuple[str, int]],
    *,
    rounds: int,
    warmup_cycles: int = 700_000,
    inter_block_cycles: int = 5_000,
) -> list[Action]:
    """The loop-head SI stream as a one-task script.

    After ``warmup_cycles``, each round fires the ``(si, expected)``
    forecasts (FC points sit at the loop head and fire on each entry),
    executes each ``(si, calls)`` block and idles ``inter_block_cycles``.
    Rotations land while the first rounds still execute (Fig. 6's
    gradual SW -> HW upgrade); once the monitor's tuned expectations
    match the observed counts, re-firings become skipped no-op replans.
    """
    one_round: list[Action] = [Forecast(si, expected=e) for si, e in forecasts]
    one_round += [ExecuteSI(si, calls) for si, calls in blocks if calls > 0]
    one_round.append(Compute(inter_block_cycles))
    return [Compute(warmup_cycles), *one_round * rounds]


def run_si_stream(
    library: "SILibrary",
    script: Iterable[Action],
    *,
    containers: int,
    energy_model: Any = None,
    fault_injector: Any = None,
    metrics: Any = None,
    wrap: "Callable[[RisppRuntime], Any] | None" = None,
) -> Any:
    """Run ``script`` as task ``main`` on a fresh 100 MHz runtime and
    return it.  The keywords pass through to :class:`RisppRuntime`;
    ``wrap`` is the recovery hook (:meth:`repro.recovery.RecoveryPlan.wrap`),
    and its wrapper is what runs the script and is returned.
    """
    from ..runtime.manager import RisppRuntime

    runtime: Any = RisppRuntime(
        library, containers, core_mhz=100.0, energy_model=energy_model,
        faults=fault_injector, metrics=metrics,
    )
    if wrap is not None:
        runtime = wrap(runtime)
    MultiTaskSimulator(runtime, [ScriptedTask("main", list(script))]).run()
    return runtime


def _run_aes(**runtime_kwargs: Any) -> SuiteRun:
    from ..apps.aes.blocks import build_aes_program, default_aes_fdfs
    from .integration import compile_and_run

    def env_factory(i: int) -> dict[str, bytes]:
        return {
            "plaintext": bytes([i % 256] * 16),
            "key": bytes([(255 - i) % 256] * 16),
        }

    with warnings.catch_warnings():
        # Library advisories (dominated molecules etc.) belong to `lint`.
        warnings.simplefilter("ignore")
        flow = compile_and_run(
            build_aes_program(),
            suite_library("aes"),
            default_aes_fdfs(),
            containers=6,
            profile_env_factory=env_factory,
            run_env={"plaintext": b"\x21" * 16, "key": b"\x42" * 16},
            profile_runs=2,
            **runtime_kwargs,
        )
    return SuiteRun(
        flow.runtime,
        env=flow.result.env,
        placements=list(flow.annotation.all_points()),
    )
