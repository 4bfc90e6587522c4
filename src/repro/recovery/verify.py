"""TRC016: resume-boundary coherence of a recovery store.

:func:`verify_resume` checks a finished (possibly resumed) run against
the recovery store it checkpointed into.  Every snapshot in the store
defines a *resume boundary*; the rule asserts the final world is
coherent with each of them:

* the snapshot's recorded trace is an exact prefix of the final trace —
  no event is duplicated or lost across the boundary, and the suffix
  starts at or after the boundary cycle;
* rotation jobs pending at the snapshot stitch exactly: each re-appears
  unchanged at the same port index, and a completed one completes in the
  suffix exactly once, at its recorded finish cycle;
* quarantine episodes open at the snapshot stitch exactly: no duplicate
  ``CONTAINER_QUARANTINED`` without an intervening repair or permanent
  failure, and a repair in the suffix closes the episode recorded at
  the boundary (matching ``injected_at``);
* the journal itself is readable (interior corruption is a finding, a
  torn tail is not — it was never acknowledged).

Clean on any checkpointing run, interrupted or not: an uninterrupted
run satisfies the prefix property trivially, and a correctly resumed
run is byte-identical to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..sim.trace import Event, EventKind
from .journal import JOURNAL_NAME, RecoveryError, read_journal
from .snapshot import list_snapshots, load_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import Diagnostic, DiagnosticReport


def _row_tuple(row: Any) -> tuple[int, str, str, str, dict[str, Any]]:
    cycle, kind, task, si, detail = row
    return (cycle, kind.value, task, si, detail)


def _stored_tuple(entry: list[Any]) -> tuple[int, str, str, str, dict[str, Any]]:
    cycle, kind, task, si, detail = entry
    return (cycle, kind, task, si, dict(detail))


def _check_trace_prefix(
    findings: list["Diagnostic"],
    runtime: Any,
    snap: dict[str, Any],
    boundary: str,
    subject: str,
) -> int | None:
    """Prefix equality; returns the suffix start index when coherent."""
    from ..analysis.rules import diag

    stored = snap["state"]["trace"]["events"]
    final = runtime.trace.events
    if len(stored) > len(final):
        findings.append(
            diag(
                "TRC016",
                f"final trace has {len(final)} events but the snapshot at "
                f"{boundary} recorded {len(stored)} — events were lost "
                "across the resume boundary",
                subject=subject,
                location=boundary,
            )
        )
        return None
    for index, (entry, row) in enumerate(zip(stored, runtime.trace.rows())):
        if _stored_tuple(entry) != _row_tuple(row):
            findings.append(
                diag(
                    "TRC016",
                    f"trace event {index} differs from the snapshot at "
                    f"{boundary}: recorded {_stored_tuple(entry)!r}, final "
                    f"{_row_tuple(row)!r} — the resume boundary "
                    "duplicated or rewrote events",
                    subject=subject,
                    location=boundary,
                )
            )
            return None
    last_cycle = snap["state"]["trace"]["last_cycle"]
    if len(final) > len(stored) and final[len(stored)].cycle < last_cycle:
        findings.append(
            diag(
                "TRC016",
                f"first post-boundary event at cycle "
                f"{final[len(stored)].cycle} predates the boundary cycle "
                f"{last_cycle} of {boundary}",
                subject=subject,
                location=boundary,
            )
        )
        return None
    return len(stored)


def _check_port_stitch(
    findings: list["Diagnostic"],
    runtime: Any,
    snap: dict[str, Any],
    completed: list[Event],
    boundary: str,
    subject: str,
) -> None:
    """``completed`` is the suffix's ``ROTATION_COMPLETED`` events."""
    from ..analysis.rules import diag

    port_state = snap["state"]["runtime"]["port"]
    stored_jobs = port_state["jobs"]
    final_jobs = runtime.port.jobs
    pending_now = {id(j) for j in runtime.port.pending_jobs()}
    for index in port_state["pending"]:
        stored = stored_jobs[index]
        where = f"{boundary} port job {index}"
        if index >= len(final_jobs):
            findings.append(
                diag(
                    "TRC016",
                    f"rotation job {index} pending at the boundary is "
                    "missing from the final port history",
                    subject=subject,
                    location=where,
                )
            )
            continue
        job = final_jobs[index]
        # finish_at is deliberately not part of the identity: dropping a
        # dead container's job resequences the queue behind it, legally
        # moving the survivors' start/finish cycles.
        identity = (job.atom, job.container_id, job.requested_at)
        recorded = (
            stored["atom"],
            stored["container_id"],
            stored["requested_at"],
        )
        if identity != recorded:
            findings.append(
                diag(
                    "TRC016",
                    f"rotation job {index} changed across the boundary: "
                    f"snapshot recorded {recorded!r}, final port holds "
                    f"{identity!r}",
                    subject=subject,
                    location=where,
                )
            )
            continue
        if job.completed:
            completions = [
                e
                for e in completed
                if e.detail.get("container") == job.container_id
                and e.cycle == job.finish_at
            ]
            if len(completions) != 1:
                findings.append(
                    diag(
                        "TRC016",
                        f"rotation job {index} (container "
                        f"{job.container_id}) pending at the boundary "
                        f"completed {len(completions)} times in the suffix "
                        f"instead of exactly once at cycle {job.finish_at}",
                        subject=subject,
                        location=where,
                    )
                )
        elif (
            not job.aborted
            and id(job) not in pending_now
            # A job whose target container died is silently dropped from
            # the queue (ReconfigurationPort._drop_failed) — failure is
            # permanent, so the final fabric still shows it.
            and not runtime.fabric.container(job.container_id).failed
        ):
            findings.append(
                diag(
                    "TRC016",
                    f"rotation job {index} pending at the boundary is "
                    "neither completed, aborted, dropped with its failed "
                    "container, nor still pending",
                    subject=subject,
                    location=where,
                )
            )


#: The suffix events that open or close a quarantine episode.
_EPISODE_KINDS = (
    EventKind.CONTAINER_QUARANTINED,
    EventKind.CONTAINER_REPAIRED,
    EventKind.CONTAINER_FAILED,
)


def _check_quarantine_stitch(
    findings: list["Diagnostic"],
    snap: dict[str, Any],
    episode_events: list[Event],
    boundary: str,
    subject: str,
) -> None:
    """``episode_events`` is the suffix's events of ``_EPISODE_KINDS``."""
    from ..analysis.rules import diag

    for container_id, episode in snap["state"]["runtime"]["faults"]["quarantined"]:
        injected_at = episode["injected_at"]
        where = f"{boundary} container {container_id}"
        closed = False
        for event in episode_events:
            if event.detail.get("container") != container_id:
                continue
            if event.kind is EventKind.CONTAINER_QUARANTINED and not closed:
                findings.append(
                    diag(
                        "TRC016",
                        f"container {container_id} re-quarantined in the "
                        "suffix while the boundary episode (injected at "
                        f"cycle {injected_at}) was still open — duplicated "
                        "episode across the resume boundary",
                        subject=subject,
                        location=where,
                    )
                )
                break
            if event.kind is EventKind.CONTAINER_REPAIRED:
                if not closed and event.detail.get("injected_at") != injected_at:
                    findings.append(
                        diag(
                            "TRC016",
                            f"repair of container {container_id} closes an "
                            "episode injected at cycle "
                            f"{event.detail.get('injected_at')}, but the "
                            "boundary episode was injected at cycle "
                            f"{injected_at} — quarantine episodes do not "
                            "stitch across the resume boundary",
                            subject=subject,
                            location=where,
                        )
                    )
                    break
                closed = True
            elif event.kind is EventKind.CONTAINER_FAILED:
                closed = True


def verify_resume(
    runtime: Any, store: Path, *, subject: str = "recovery"
) -> "DiagnosticReport":
    """Judge a finished run against its recovery store (rule TRC016).

    ``runtime`` is the runtime that finished the run (a
    :class:`~repro.recovery.runtime.RecoverableRuntime` or the plain
    runtime it wraps); ``store`` is the checkpoint directory.
    """
    from ..analysis.diagnostics import DiagnosticReport
    from ..analysis.rules import diag

    findings: list[Diagnostic] = []
    store = Path(store)
    try:
        read_journal(store / JOURNAL_NAME)
    except RecoveryError as exc:
        findings.append(
            diag(
                "TRC016",
                f"recovery journal unusable: {exc}",
                subject=subject,
                location=str(store / JOURNAL_NAME),
            )
        )
    for _seq, path in list_snapshots(store):
        boundary = path.name
        try:
            snap = load_snapshot(path)
        except RecoveryError as exc:
            findings.append(
                diag(
                    "TRC016",
                    f"recovery snapshot unusable: {exc}",
                    subject=subject,
                    location=str(path),
                )
            )
            continue
        suffix_start = _check_trace_prefix(
            findings, runtime, snap, boundary, subject
        )
        if suffix_start is None:
            continue
        # Each check reads its kinds of the suffix once per snapshot.
        suffix = runtime.trace[suffix_start:]
        _check_port_stitch(
            findings,
            runtime,
            snap,
            suffix.of_kind(EventKind.ROTATION_COMPLETED),
            boundary,
            subject,
        )
        if snap["state"]["runtime"]["faults"] is not None:
            _check_quarantine_stitch(
                findings, snap, suffix.of_kind(*_EPISODE_KINDS), boundary, subject
            )
    return DiagnosticReport(findings)
