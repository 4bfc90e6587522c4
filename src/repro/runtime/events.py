"""The runtime events of the §5 control loop and their fixed reactions.

Every cross-component notification of the run-time manager — forecasts
firing and ending, SI executions, rotation requests/completions, fault
delivery and recovery, replan triggers — is a frozen event dataclass
passed to :meth:`RisppRuntime.publish <repro.runtime.manager.RisppRuntime.
publish>`, which runs the event's reactions from the static
:data:`HANDLERS` table:

* :class:`~repro.runtime.manager.RisppRuntime` publishes forecast /
  execution / replan events;
* :class:`~repro.hardware.reconfig.ReconfigurationPort` publishes
  :class:`RotationCompleted` for every retired job once attached;
* :class:`~repro.faults.injector.FaultInjector` publishes the fault
  lifecycle (:class:`FaultInjected` .. :class:`ContainerRepaired`) and
  reacts to completions and software-fallback executions;
* the :class:`~repro.runtime.monitor.ForecastMonitor` reacts to
  :class:`SIExecuted` / :class:`ForecastEnded` (its ``forecast_fired``
  fine-tuning remains a synchronous *query*: the tuned expectation is
  part of the :class:`ForecastFired` payload itself).

Determinism rules (the contract ``docs/events.md`` specifies):

1. Dispatch is synchronous and single-threaded: ``publish`` runs every
   reaction before returning, in table order — no queues, no threads,
   no reordering.
2. A traced event's ``_trace_*`` recorder comes first in its row, before
   any state-mutating reaction, so the recorded event sequence is
   exactly the publication sequence (rispp-verify replays it).
3. Handlers are module-level functions of ``(runtime, event)``; all
   mutable state lives on the runtime, so structural clones of a runtime
   (rispp-explore's successor generator) need no dispatch state of
   their own.
4. :class:`ReplanRequested` is a control event: it never records a
   trace row, so publishing it cannot perturb the golden traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..sim.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hardware.reconfig import RotationJob
    from .manager import RisppRuntime


# ---------------------------------------------------------------------------
# Event taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ForecastFired:
    """A Forecast point fired (§4.2): the SI is expected soon.

    ``expected`` is the monitor-tuned expectation (task a) — the
    fine-tuning query runs *before* publication so the handlers (and the
    trace) see the value the selection round will use.
    """

    cycle: int
    task: str
    si: str
    expected: float
    priority: float


@dataclass(frozen=True, slots=True)
class ForecastEnded:
    """A Forecast point retired its SI demand (§4.2)."""

    cycle: int
    task: str
    si: str


@dataclass(frozen=True, slots=True)
class SIExecuted:
    """One SI executed (§5): ``mode`` is ``"SW"`` or a molecule label."""

    cycle: int
    task: str
    si: str
    mode: str
    cycles: int
    #: True when a hardware molecule served the execution.
    hw: bool


@dataclass(frozen=True, slots=True)
class SIModeSwitched:
    """An SI's dispatch mode changed between executions (Fig. 6)."""

    cycle: int
    task: str
    si: str
    from_mode: str
    to_mode: str
    cycles: int


@dataclass(frozen=True, slots=True)
class RotationRequested:
    """A rotation job was issued to the SelectMap port (§5 task c)."""

    cycle: int
    job: "RotationJob"
    #: Fault-recovery repair write (vs an ordinary planner rotation).
    repair: bool


@dataclass(frozen=True, slots=True)
class RotationCompleted:
    """The port finished writing a bitstream; the Atom is usable."""

    cycle: int
    job: "RotationJob"


@dataclass(frozen=True, slots=True)
class ContainerReallocated:
    """The planner moved an Atom Container between tasks (Fig. 6, T3)."""

    cycle: int
    container: int
    from_task: str | None
    to_task: str | None


@dataclass(frozen=True, slots=True)
class ContainerFailed:
    """An Atom Container was permanently retired."""

    cycle: int
    container: int
    lost_atom: str | None


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """A scheduled fault event was delivered (transient / write / permanent)."""

    cycle: int
    fault: str
    #: None for write errors hitting an idle port.
    container: int | None
    atom: str | None
    effect: str
    task: str = ""


@dataclass(frozen=True, slots=True)
class FaultDetected:
    """The readback scrubber found a silent corruption."""

    cycle: int
    container: int
    atom: str
    injected_at: int
    latency: int


@dataclass(frozen=True, slots=True)
class ContainerQuarantined:
    """A corrupted container was barred from ordinary rotations."""

    cycle: int
    container: int
    atom: str | None


@dataclass(frozen=True, slots=True)
class ContainerRepaired:
    """A repair rotation completed; the quarantine is released."""

    cycle: int
    task: str
    container: int
    atom: str
    injected_at: int
    mttr: int


@dataclass(frozen=True, slots=True)
class RotationRetried:
    """An aborted bitstream write was rescheduled with backoff."""

    cycle: int
    task: str
    container: int
    atom: str
    attempt: int
    retry_at: int


@dataclass(frozen=True, slots=True)
class ReplanRequested:
    """Something invalidated the current rotation plan (control event).

    ``task`` names the task to replan on behalf of; ``None`` means
    "derive the trigger from the active forecasts" (the fault paths).
    Never recorded in the trace — replans themselves surface as the
    :class:`RotationRequested` / :class:`ContainerReallocated` events
    they produce.
    """

    cycle: int
    task: str | None
    reason: str


#: Every event type the runtime core may publish, in taxonomy order.
#: ``docs/events.md`` must name each of these (docs_check enforces it).
EVENT_TYPES: tuple[type, ...] = (
    ForecastFired,
    ForecastEnded,
    SIExecuted,
    SIModeSwitched,
    RotationRequested,
    RotationCompleted,
    ContainerReallocated,
    ContainerFailed,
    FaultInjected,
    FaultDetected,
    ContainerQuarantined,
    ContainerRepaired,
    RotationRetried,
    ReplanRequested,
)

#: Handler signature: stateless module-level functions of the publishing
#: runtime and the event (determinism rule 3).
Handler = Callable[["RisppRuntime", object], None]


# ---------------------------------------------------------------------------
# Handlers: the §5 loop's reactions, one function per concern
# ---------------------------------------------------------------------------


def _trace_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.FORECAST,
        task=ev.task,
        si=ev.si,
        expected=ev.expected,
        priority=ev.priority,
    )


def _metrics_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    if rt._obs_on:
        rt._m_fc_fired.inc()


def _replan_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    if rt.forecasting:
        rt.publish(ReplanRequested(ev.cycle, task=ev.task, reason="forecast"))


def _trace_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    rt.trace.record(ev.cycle, EventKind.FORECAST_END, task=ev.task, si=ev.si)


def _monitor_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    rt.monitor.forecast_ended(ev.task, ev.si, ev.cycle)


def _metrics_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    if rt._obs_on:
        rt._m_fc_ended.inc()


def _replan_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    if rt.forecasting:
        # Freed containers may enable upgrades for the remaining SIs;
        # replan on behalf of the task(s) still holding forecasts.
        remaining = {f.task for f in rt._active.values()}
        trigger = sorted(remaining)[0] if remaining else ev.task
        rt.publish(ReplanRequested(ev.cycle, task=trigger, reason="forecast_end"))


def _trace_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    if rt._optimize:
        # Lazy detail: the dict is only built if somebody reads it —
        # resolved values are identical to the eager form below.
        rt.trace.record_lazy(
            ev.cycle,
            EventKind.SI_EXECUTED,
            lambda mode=ev.mode, cycles=ev.cycles: {
                "mode": mode, "cycles": cycles,
            },
            task=ev.task,
            si=ev.si,
        )
    else:
        rt.trace.record(
            ev.cycle,
            EventKind.SI_EXECUTED,
            task=ev.task,
            si=ev.si,
            mode=ev.mode,
            cycles=ev.cycles,
        )


def _monitor_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    rt.monitor.si_executed(ev.task, ev.si)


def _metrics_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    if rt._obs_on:
        if ev.hw:
            rt._m_exec_hw.inc()
            rt._m_cycles_hw.inc(ev.cycles)
        else:
            rt._m_exec_sw.inc()
            rt._m_cycles_sw.inc(ev.cycles)
        rt._m_si_latency.observe(ev.cycles)


def _faults_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    if not ev.hw and rt._faults is not None:
        rt._faults.note_execution(rt, rt.library.get(ev.si), ev.cycle)


def _trace_mode_switch(rt: "RisppRuntime", ev: SIModeSwitched) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.SI_MODE_SWITCH,
        task=ev.task,
        si=ev.si,
        from_mode=ev.from_mode,
        to_mode=ev.to_mode,
        cycles=ev.cycles,
    )


def _metrics_mode_switch(rt: "RisppRuntime", ev: SIModeSwitched) -> None:
    if rt._obs_on:
        rt._m_mode_switches.inc()


def _trace_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    job = ev.job
    detail: dict = dict(
        detail_atom=job.atom,
        container=job.container_id,
        starts=job.started_at,
        finishes=job.finish_at,
        evicts=job.evicted,
    )
    if ev.repair:
        detail["repair"] = True
    rt.trace.record(
        ev.cycle,
        EventKind.ROTATION_REQUESTED,
        task=job.owner or "",
        **detail,
    )


def _stats_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    rt.stats.rotations_requested += 1
    if rt.energy_model is not None:
        kind = rt.library.catalogue.get(ev.job.atom)
        rt.stats.rotation_energy_nj += (
            kind.bitstream_bytes * rt.energy_model.rotation_nj_per_byte
        )


def _metrics_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    if rt._obs_on:
        (rt._m_rot_repair if ev.repair else rt._m_rot_planned).inc()


def _trace_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    job = ev.job
    rt.trace.record(
        job.finish_at,
        EventKind.ROTATION_COMPLETED,
        task=job.owner or "",
        detail_atom=job.atom,
        container=job.container_id,
    )


def _faults_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    if rt._faults is not None:
        rt._faults.on_rotation_completed(rt, ev.job)


def _replan_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    if rt._unplaced_for is not None and rt._active:
        trigger = rt._unplaced_for
        rt._unplaced_for = None
        rt.publish(
            ReplanRequested(ev.job.finish_at, task=trigger, reason="unplaced")
        )


def _trace_reallocation(rt: "RisppRuntime", ev: ContainerReallocated) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.REALLOCATION,
        task=ev.to_task or "",
        container=ev.container,
        from_task=ev.from_task,
        to_task=ev.to_task,
    )


def _trace_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_FAILED,
        container=ev.container,
        lost_atom=ev.lost_atom,
    )


def _faults_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    if rt._faults is not None:
        rt._faults.on_container_failed(ev.container, ev.cycle)


def _replan_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    rt.publish(ReplanRequested(ev.cycle, task=None, reason="container_failed"))


def _trace_fault_injected(rt: "RisppRuntime", ev: FaultInjected) -> None:
    detail: dict = {}
    if ev.container is not None:
        detail["container"] = ev.container
    detail["fault"] = ev.fault
    if ev.effect != "none":
        # An effective fault always names its atom — ``None`` means the
        # retired container held nothing, which is itself information.
        detail["atom"] = ev.atom
    detail["effect"] = ev.effect
    rt.trace.record(ev.cycle, EventKind.FAULT_INJECTED, task=ev.task, **detail)


def _trace_fault_detected(rt: "RisppRuntime", ev: FaultDetected) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.FAULT_DETECTED,
        container=ev.container,
        atom=ev.atom,
        injected_at=ev.injected_at,
        latency=ev.latency,
    )


def _trace_quarantined(rt: "RisppRuntime", ev: ContainerQuarantined) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_QUARANTINED,
        container=ev.container,
        atom=ev.atom,
    )


def _trace_repaired(rt: "RisppRuntime", ev: ContainerRepaired) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_REPAIRED,
        task=ev.task,
        container=ev.container,
        atom=ev.atom,
        injected_at=ev.injected_at,
        mttr=ev.mttr,
    )


def _trace_retried(rt: "RisppRuntime", ev: RotationRetried) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.ROTATION_RETRIED,
        task=ev.task,
        container=ev.container,
        atom=ev.atom,
        attempt=ev.attempt,
        retry_at=ev.retry_at,
    )


def _replan_requested(rt: "RisppRuntime", ev: ReplanRequested) -> None:
    if ev.task is not None:
        rt._replan(ev.cycle, triggering_task=ev.task)
    elif rt._active:
        trigger = sorted({f.task for f in rt._active.values()})[0]
        rt._replan(ev.cycle, triggering_task=trigger)


#: The §5 loop's reactions per event type, in dispatch order.  A traced
#: event's ``_trace_*`` recorder always comes first (determinism rule 2).
HANDLERS: dict[type, tuple[Handler, ...]] = {
    ForecastFired: (_trace_forecast, _metrics_forecast, _replan_forecast),
    ForecastEnded: (
        _trace_forecast_end,
        _monitor_forecast_end,
        _metrics_forecast_end,
        _replan_forecast_end,
    ),
    SIExecuted: (
        _trace_si_executed,
        _monitor_si_executed,
        _metrics_si_executed,
        _faults_si_executed,
    ),
    SIModeSwitched: (_trace_mode_switch, _metrics_mode_switch),
    RotationRequested: (
        _trace_rotation_requested,
        _stats_rotation_requested,
        _metrics_rotation_requested,
    ),
    RotationCompleted: (
        _trace_rotation_completed,
        _faults_rotation_completed,
        _replan_rotation_completed,
    ),
    ContainerReallocated: (_trace_reallocation,),
    ContainerFailed: (
        _trace_container_failed,
        _faults_container_failed,
        _replan_container_failed,
    ),
    FaultInjected: (_trace_fault_injected,),
    FaultDetected: (_trace_fault_detected,),
    ContainerQuarantined: (_trace_quarantined,),
    ContainerRepaired: (_trace_repaired,),
    RotationRetried: (_trace_retried,),
    ReplanRequested: (_replan_requested,),
}


class EventBus:
    """Synchronous dispatch of runtime events through :data:`HANDLERS`.

    Stateless: :data:`BUS` is the one instance every runtime publishes
    through.  An event type outside the taxonomy raises ``KeyError``.
    ``publish`` stays a method looked up on the class at every call so
    that the benchmark's layer tracer (``perf/trace.py``) can wrap
    ``EventBus.publish`` as the ``runtime.events`` layer.
    """

    __slots__ = ()

    def publish(self, runtime: "RisppRuntime", event: object) -> None:
        for handler in HANDLERS[type(event)]:
            handler(runtime, event)


BUS = EventBus()
