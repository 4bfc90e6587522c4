"""High-level lint drivers: one call per artifact family, plus built-ins.

These are the convenience entry points everything else uses:

* :func:`lint_library` / :func:`lint_cfg` / :func:`lint_forecast` /
  :func:`lint_schedule` / :func:`lint_rotations` — single-artifact runs;
* :func:`lint_flow` — the combined compile-time bundle checked by
  :func:`repro.sim.integration.compile_and_run` before executing;
* :func:`lint_builtin` — the shipped H.264 and AES subjects behind
  ``python -m repro lint``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .diagnostics import DiagnosticReport
from .registry import (
    ForecastArtifact,
    LintContext,
    RotationLog,
    ScheduleArtifact,
    run_checks,
)

if TYPE_CHECKING:
    from ..cfg.graph import ControlFlowGraph
    from ..core.library import SILibrary
    from ..core.molecule import Molecule
    from ..core.schedule import Dataflow, Schedule
    from ..forecast.annotate import ForecastAnnotation
    from ..forecast.fdf import ForecastDecisionFunction
    from ..forecast.placement import ForecastPoint
    from ..hardware.reconfig import ReconfigurationPort, RotationJob


def lint_library(
    library: "SILibrary",
    *,
    containers: int | None = None,
    subject: str = "",
) -> DiagnosticReport:
    """Lattice + library checks over one SI library."""
    ctx = LintContext(containers=containers, subject=subject)
    return run_checks(library, context=ctx)


def lint_cfg(cfg: "ControlFlowGraph", *, subject: str = "") -> DiagnosticReport:
    """Profile well-formedness checks over one CFG."""
    return run_checks(cfg, context=LintContext(subject=subject))


def lint_forecast(
    cfg: "ControlFlowGraph",
    placements: "ForecastAnnotation | Sequence[ForecastPoint]",
    *,
    library: "SILibrary | None" = None,
    fdfs: "dict[str, ForecastDecisionFunction] | None" = None,
    subject: str = "",
) -> DiagnosticReport:
    """Placement checks of forecast points (or a whole annotation)."""
    artifact = ForecastArtifact(
        cfg=cfg, points=placements, fdfs=fdfs, library=library, subject=subject
    )
    return run_checks(artifact, context=LintContext(subject=subject))


def lint_schedule(
    dataflow: "Dataflow",
    molecule: "Molecule",
    schedule: "Schedule",
    *,
    unconstrained_kinds: Iterable[str] = (),
    issue_overhead: int = 0,
    subject: str = "",
) -> DiagnosticReport:
    """Feasibility checks of a list-scheduler result."""
    artifact = ScheduleArtifact(
        dataflow=dataflow,
        molecule=molecule,
        schedule=schedule,
        unconstrained_kinds=tuple(unconstrained_kinds),
        issue_overhead=issue_overhead,
        subject=subject,
    )
    return run_checks(artifact, context=LintContext(subject=subject))


def lint_rotations(
    jobs: "Sequence[RotationJob] | ReconfigurationPort",
    *,
    subject: str = "",
) -> DiagnosticReport:
    """Serialisation/feasibility checks of a rotation job sequence.

    Accepts a raw job list or a whole port (which also yields the
    per-atom expected rotation latencies).
    """
    if hasattr(jobs, "rotation_cycles"):  # a ReconfigurationPort
        log = RotationLog.from_port(jobs, subject=subject)  # type: ignore[arg-type]
    else:
        log = RotationLog(jobs=list(jobs), subject=subject)
    return run_checks(log, context=LintContext(subject=subject))


def lint_flow(
    cfg: "ControlFlowGraph",
    library: "SILibrary",
    annotation: "ForecastAnnotation",
    *,
    fdfs: "dict[str, ForecastDecisionFunction] | None" = None,
    containers: int | None = None,
    subject: str = "",
) -> DiagnosticReport:
    """The combined compile-time bundle: library + CFG + placements.

    ``containers`` is deliberately optional: running a library on a
    platform with fewer (even zero) containers is a valid pure-software
    baseline, so the integration layer skips the capacity rules unless a
    caller opts in.
    """
    report = lint_library(library, containers=containers,
                          subject=subject or "flow:library")
    report.merge(lint_cfg(cfg, subject=subject or "flow:cfg"))
    report.merge(
        lint_forecast(
            cfg, annotation, library=library, fdfs=fdfs,
            subject=subject or "flow:forecast",
        )
    )
    return report


# ---------------------------------------------------------------------------
# Built-in subjects: what ``python -m repro lint`` analyses
# ---------------------------------------------------------------------------

BUILTIN_SUBJECTS = ("h264", "aes")


def _h264_artifacts(containers: int | None) -> DiagnosticReport:
    from ..apps.h264 import build_h264_library
    from ..core.schedule import layered_dataflow, list_schedule

    library = build_h264_library()
    report = lint_library(library, containers=containers, subject="library:h264")

    # Cross-check one Table 2 molecule as a dataflow schedule artifact:
    # 4 Transform executions feeding 4 Pack executions (the HT_4x4 shape).
    dataflow = layered_dataflow(
        [("Transform", 4, 2), ("Pack", 4, 1)], fan_in=True
    )
    molecule = library.space.molecule({"Transform": 2, "Pack": 1})
    schedule = list_schedule(dataflow, molecule)
    report.merge(
        lint_schedule(dataflow, molecule, schedule, subject="schedule:h264-HT")
    )
    return report


def _aes_artifacts(containers: int | None) -> DiagnosticReport:
    from ..apps.aes import (
        build_aes_library,
        default_aes_fdfs,
        profile_aes,
    )
    from ..forecast import run_forecast_pipeline
    from ..hardware.fabric import Fabric
    from ..hardware.reconfig import ReconfigurationPort

    library = build_aes_library()
    report = lint_library(library, containers=containers, subject="library:aes")

    cfg = profile_aes(runs=4)
    report.merge(lint_cfg(cfg, subject="cfg:aes"))

    fdfs = default_aes_fdfs()
    annotation = run_forecast_pipeline(cfg, library, fdfs, containers or 4)
    report.merge(
        lint_forecast(
            cfg, annotation, library=library, fdfs=fdfs, subject="forecast:aes"
        )
    )

    # A short synthetic rotation sequence through the single port.
    fabric = Fabric(library.catalogue, 3)
    port = ReconfigurationPort(library.catalogue)
    now = 0
    for container_id, atom in enumerate(("SBoxLUT", "GFMul", "XorTree")):
        port.request(fabric, atom, container_id, now)
    port.advance(fabric, port.busy_until)
    report.merge(lint_rotations(port, subject="rotations:aes"))
    return report


def lint_builtin(
    subjects: Iterable[str] = BUILTIN_SUBJECTS,
    *,
    containers: int | None = None,
) -> DiagnosticReport:
    """Lint the shipped case-study artifacts (the CLI's default run)."""
    report = DiagnosticReport()
    for subject in subjects:
        if subject == "h264":
            report.merge(_h264_artifacts(containers))
        elif subject == "aes":
            report.merge(_aes_artifacts(containers))
        else:
            raise ValueError(
                f"unknown lint subject {subject!r}; "
                f"expected one of {BUILTIN_SUBJECTS}"
            )
    return report
