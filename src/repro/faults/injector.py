"""The fault injector: delivery, scrubbing, quarantine and repair.

The injector plugs into :meth:`RisppRuntime.advance`: the manager asks
:meth:`FaultInjector.next_cycle` for the earliest due fault/scrub/retry
event, drains rotation completions up to that cycle, then lets
:meth:`FaultInjector.step` fire it — so every fault sees exactly the
hardware state of its own cycle and the trace stays chronological.

Recovery model (the state machine drawn in ``docs/faults.md``):

* A **transient** SEU corrupts a loaded container *silently*: the
  container keeps reporting its Atom (the planner and execution path
  still trust it) until the periodic readback scrubber visits — at the
  first multiple of ``scrub_period`` after the injection — or an
  ordinary rotation overwrites the container first (self-heal).
* On detection the container is **quarantined** (its Atom dropped, the
  container barred from ordinary rotations) and a **repair rotation**
  re-loading the lost Atom is pushed through the normal SelectMap port;
  if the planner already queued a rotation into that container, that
  pending job is adopted as the repair.  The repair completing releases
  the quarantine and re-admits the container.
* A **write error** aborts whatever bitstream transfer is in flight;
  the job is retried with exponential backoff (``backoff_cycles * 2^n``)
  up to ``max_retries`` times, after which a planner job is abandoned
  (and the forecast replanned) while a repair job retires its container
  for good.
* A **permanent** defect retires the container immediately.

All bookkeeping is deterministic given the schedule, and every decision
is traced (``FAULT_INJECTED`` / ``FAULT_DETECTED`` /
``CONTAINER_QUARANTINED`` / ``CONTAINER_REPAIRED`` /
``ROTATION_RETRIED``) so rispp-verify can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..runtime import events
from ..state import Ref, counter, state, wiring
from .model import FaultEvent, FaultKind, FaultSchedule
from .stats import ResilienceStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.si import SpecialInstruction
    from ..hardware.reconfig import RotationJob
    from ..runtime.manager import RisppRuntime


@dataclass
class _Episode:
    """One fault's life from injection to resolution."""

    container: int
    atom: str
    injected_at: int
    detected_at: int | None = None


@dataclass
class _Retry:
    """A rescheduled bitstream write waiting out its backoff."""

    due: int
    container: int
    atom: str
    owner: str | None
    repair: bool


class FaultInjector:
    """Deliver a :class:`FaultSchedule` and recover from it."""

    #: The state declaration (roles: :mod:`repro.state`).
    STATE_ROLES = {
        "_corrupted": state(dict[int, _Episode]),
        "_quarantined": state(dict[int, _Episode]),
        "_retries": state(list[_Retry]),
        "_attempts": state(dict[tuple[int, str], int]),
        # The repair job *is* a port job (repair release compares by identity).
        "_repair_of": state(dict[int, Ref("_runtime.port.jobs")]),  # type: ignore[valid-type, misc]
        # Delivery history: every action drains the due events first.
        "_events": counter(list[FaultEvent]),
        "_cursor": counter(int),
        # Degraded-time integral and tallies: reports read them, recovery does not.
        "_last_mark": counter(int),
        "stats": counter(ResilienceStats),
        **wiring("schedule", "scrub_period", "max_retries", "backoff_cycles", "_runtime"),
    }

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        scrub_period: int = 10_000,
        max_retries: int = 3,
        backoff_cycles: int = 1_000,
    ):
        if scrub_period < 1:
            raise ValueError("scrub period must be positive")
        if max_retries < 0:
            raise ValueError("retry budget cannot be negative")
        if backoff_cycles < 1:
            raise ValueError("backoff must be positive")
        self.schedule = schedule
        self.scrub_period = scrub_period
        self.max_retries = max_retries
        self.backoff_cycles = backoff_cycles
        self.stats = ResilienceStats()
        self._events: list[FaultEvent] = list(schedule)
        self._cursor = 0
        #: Open silent-corruption episodes, by container id.
        self._corrupted: dict[int, _Episode] = {}
        #: Detected episodes waiting for their repair rotation.
        self._quarantined: dict[int, _Episode] = {}
        #: Backed-off writes waiting to be re-queued.
        self._retries: list[_Retry] = []
        #: Write attempts consumed per (container, atom) job identity.
        self._attempts: dict[tuple[int, str], int] = {}
        #: The in-flight repair job per quarantined container.
        self._repair_of: dict[int, "RotationJob"] = {}
        self._last_mark = 0
        self._runtime: "RisppRuntime | None" = None

    # -- wiring -----------------------------------------------------------

    def attach(self, runtime: "RisppRuntime") -> None:
        """Bind to one runtime (called by ``RisppRuntime.__init__``)."""
        if self._runtime is not None and self._runtime is not runtime:
            raise ValueError("fault injector is already attached to a runtime")
        for event in self._events:
            if (
                event.kind is not FaultKind.WRITE_ERROR
                and event.container >= len(runtime.fabric)
            ):
                raise ValueError(
                    f"fault schedule targets container {event.container}, "
                    f"but the fabric has {len(runtime.fabric)} containers"
                )
        self._runtime = runtime
        self._bind_metrics(runtime)

    def _bind_metrics(self, runtime: "RisppRuntime") -> None:
        """Register the fault telemetry, all read at collection time: from
        the runtime's trace and from the injector's own state."""
        obs = runtime.metrics
        if not obs.enabled:
            return
        runtime._bind_traced(obs.counter("faults_injected_total"))
        runtime._bind_traced(obs.histogram("repair_cycles"))
        obs.gauge("quarantine_depth").set_callback(lambda: len(self._quarantined))
        obs.counter("degraded_cycles_total").set_callback(
            lambda: self.stats.degraded_cycles
        )

    def schedule_fault(self, event: FaultEvent) -> None:
        """Append a fault event at run time (model-checking drivers).

        rispp-explore drives faults as explicit *actions* rather than a
        pre-baked schedule, so the injector accepts late additions.  The
        event must not predate already-delivered events (the trace is
        chronological), and — once attached — its container must exist.
        """
        import bisect

        if self._cursor > 0 and event.cycle < self._events[self._cursor - 1].cycle:
            raise ValueError(
                f"cannot schedule a fault at cycle {event.cycle}: events up "
                f"to cycle {self._events[self._cursor - 1].cycle} were "
                "already delivered"
            )
        if (
            self._runtime is not None
            and event.kind is not FaultKind.WRITE_ERROR
            and event.container >= len(self._runtime.fabric)
        ):
            raise ValueError(
                f"fault targets container {event.container}, but the fabric "
                f"has {len(self._runtime.fabric)} containers"
            )
        bisect.insort(self._events, event, lo=self._cursor)

    # -- clock interface (called by RisppRuntime.advance) -----------------

    def next_cycle(self, now: int) -> int | None:
        """Earliest due fault / scrub detection / retry at or before ``now``."""
        best: int | None = None
        if self._cursor < len(self._events):
            cycle = self._events[self._cursor].cycle
            if cycle <= now:
                best = cycle
        for episode in self._corrupted.values():
            due = self._detect_at(episode)
            if due <= now and (best is None or due < best):
                best = due
        for retry in self._retries:
            if retry.due <= now and (best is None or retry.due < best):
                best = retry.due
        return best

    def step(self, runtime: "RisppRuntime", t: int) -> None:
        """Fire everything due at cycle ``t`` (injections, scrubs, retries).

        The manager guarantees rotation completions up to ``t`` are
        already processed, so injections see the state of their cycle.
        Follow-on work (detections of fresh injections, backed-off
        retries) is always due *strictly after* ``t``, so the manager's
        drain loop terminates.
        """
        self._mark(t)
        while (
            self._cursor < len(self._events)
            and self._events[self._cursor].cycle <= t
        ):
            event = self._events[self._cursor]
            self._cursor += 1
            self._inject(runtime, event, t)
        for container_id in sorted(self._corrupted):
            episode = self._corrupted[container_id]
            if self._detect_at(episode) <= t:
                self._detect(runtime, container_id, t)
        for retry in [r for r in self._retries if r.due <= t]:
            self._retries.remove(retry)
            self._run_retry(runtime, retry, t)

    # -- injection --------------------------------------------------------

    def _inject(self, runtime: "RisppRuntime", event: FaultEvent, t: int) -> None:
        self.stats.faults_injected += 1
        if event.kind is FaultKind.TRANSIENT:
            self.stats.transients += 1
            self._inject_transient(runtime, event.container, t)
        elif event.kind is FaultKind.WRITE_ERROR:
            self.stats.write_errors += 1
            self._inject_write_error(runtime, t)
        else:
            self.stats.permanents += 1
            self._inject_permanent(runtime, event.container, t)

    def _inject_transient(
        self, runtime: "RisppRuntime", container_id: int, t: int
    ) -> None:
        container = runtime.fabric.container(container_id)
        if not container.is_available() or container.corrupted:
            # Nothing loaded to upset (or the damage is already done).
            self.stats.faults_no_effect += 1
            runtime.publish(
                events.FaultInjected(
                    t,
                    fault=FaultKind.TRANSIENT.value,
                    container=container_id,
                    atom=None,
                    effect="none",
                )
            )
            return
        atom = container.mark_corrupted()
        self._corrupted[container_id] = _Episode(container_id, atom, t)
        runtime.publish(
            events.FaultInjected(
                t,
                fault=FaultKind.TRANSIENT.value,
                container=container_id,
                atom=atom,
                effect="corrupted",
            )
        )

    def _inject_write_error(self, runtime: "RisppRuntime", t: int) -> None:
        job = runtime.port.abort_active(runtime.fabric, t)
        if job is None:
            self.stats.faults_no_effect += 1
            runtime.publish(
                events.FaultInjected(
                    t,
                    fault=FaultKind.WRITE_ERROR.value,
                    container=None,
                    atom=None,
                    effect="none",
                )
            )
            return
        runtime.publish(
            events.FaultInjected(
                t,
                fault=FaultKind.WRITE_ERROR.value,
                container=job.container_id,
                atom=job.atom,
                effect="write_aborted",
                task=job.owner or "",
            )
        )
        key = (job.container_id, job.atom)
        attempts = self._attempts.get(key, 0)
        if attempts >= self.max_retries:
            self._attempts.pop(key, None)
            if job.repair:
                # The repair write cannot get through: retire the
                # container (the episode closes via on_container_failed).
                self.stats.containers_retired += 1
                runtime._fail_container_at(job.container_id, t)
            else:
                self.stats.jobs_abandoned += 1
                runtime._request_replan(t)
            return
        self._attempts[key] = attempts + 1
        due = t + self._backoff_for(attempts)
        self.stats.rotation_retries += 1
        runtime.publish(
            events.RotationRetried(
                t,
                task=job.owner or "",
                container=job.container_id,
                atom=job.atom,
                attempt=attempts + 1,
                retry_at=due,
            )
        )
        self._retries.append(
            _Retry(due, job.container_id, job.atom, job.owner, job.repair)
        )

    def _backoff_for(self, attempts: int) -> int:
        """Backoff delay before retry ``attempts + 1``: exponential
        doubling of ``backoff_cycles``."""
        return self.backoff_cycles * (2**attempts)

    def _inject_permanent(
        self, runtime: "RisppRuntime", container_id: int, t: int
    ) -> None:
        container = runtime.fabric.container(container_id)
        if container.failed:
            self.stats.faults_no_effect += 1
            runtime.publish(
                events.FaultInjected(
                    t,
                    fault=FaultKind.PERMANENT.value,
                    container=container_id,
                    atom=None,
                    effect="none",
                )
            )
            return
        runtime.publish(
            events.FaultInjected(
                t,
                fault=FaultKind.PERMANENT.value,
                container=container_id,
                atom=container.atom,
                effect="failed",
            )
        )
        self.stats.containers_retired += 1
        runtime._fail_container_at(container_id, t)

    # -- scrubbing & repair -----------------------------------------------

    def _detect_at(self, episode: _Episode) -> int:
        """The scrubber visit that finds the episode: the first readback
        pass strictly after the injection."""
        return (episode.injected_at // self.scrub_period + 1) * self.scrub_period

    def _detect(self, runtime: "RisppRuntime", container_id: int, t: int) -> None:
        episode = self._corrupted.pop(container_id)
        container = runtime.fabric.container(container_id)
        if not container.corrupted:
            # An ordinary rotation overwrote the container first; the
            # corruption never surfaced (counted when noticed, here).
            self.stats.faults_overwritten += 1
            return
        episode.detected_at = t
        self.stats.faults_detected += 1
        self.stats.detection_cycles_total += t - episode.injected_at
        runtime.publish(
            events.FaultDetected(
                t,
                container=container_id,
                atom=episode.atom,
                injected_at=episode.injected_at,
                latency=t - episode.injected_at,
            )
        )
        lost = container.quarantine()
        self.stats.containers_quarantined += 1
        runtime.publish(
            events.ContainerQuarantined(t, container=container_id, atom=lost)
        )
        self._quarantined[container_id] = episode
        if runtime.port.is_reserved(container_id):
            # The planner already queued a rotation into this container;
            # it overwrites the bad configuration, so adopt it as the
            # repair instead of double-booking the port.
            self._adopt_repair(runtime, container_id)
        else:
            job = runtime.port.request(
                runtime.fabric,
                episode.atom,
                container_id,
                t,
                owner=container.owner,
                repair=True,
            )
            runtime._record_rotation_request(job, t, repair=True)
            self._repair_of[container_id] = job

    def _adopt_repair(self, runtime: "RisppRuntime", container_id: int) -> None:
        for job in runtime.port.pending_jobs():
            if job.container_id == container_id and not job.completed:
                job.repair = True
                self._repair_of[container_id] = job
                return

    def _run_retry(self, runtime: "RisppRuntime", retry: _Retry, t: int) -> None:
        container = runtime.fabric.container(retry.container)
        if container.failed:
            return  # superseded by a permanent defect
        if runtime.port.is_reserved(retry.container):
            if retry.repair:
                # Defensive: some job claimed the quarantined container;
                # it must be the repair's successor — track it as such.
                self._adopt_repair(runtime, retry.container)
            return
        if retry.repair and not container.quarantined:
            return  # released some other way; nothing left to repair
        if not retry.repair and container.quarantined:
            return  # the quarantine repair path owns the container now
        if container.is_available() and container.atom == retry.atom:
            return  # the planner already reloaded the atom
        job = runtime.port.request(
            runtime.fabric,
            retry.atom,
            retry.container,
            t,
            owner=retry.owner,
            repair=retry.repair,
        )
        runtime._record_rotation_request(job, t, repair=retry.repair)
        if retry.repair:
            self._repair_of[retry.container] = job

    # -- runtime callbacks ------------------------------------------------

    def on_rotation_completed(self, runtime: "RisppRuntime", job: "RotationJob") -> None:
        """A rotation finished: settle overwrites, repairs and retries."""
        container_id = job.container_id
        episode = self._corrupted.get(container_id)
        if episode is not None and not runtime.fabric.container(
            container_id
        ).corrupted:
            self._mark(job.finish_at)
            self._corrupted.pop(container_id)
            self.stats.faults_overwritten += 1
        self._attempts.pop((container_id, job.atom), None)
        if self._repair_of.get(container_id) is job:
            self._mark(job.finish_at)
            self._repair_of.pop(container_id)
            repaired = self._quarantined.pop(container_id)
            runtime.fabric.container(container_id).release_quarantine()
            mttr = job.finish_at - repaired.injected_at
            self.stats.containers_repaired += 1
            self.stats.mttr_cycles_total += mttr
            self.stats.mttr_cycles_max = max(self.stats.mttr_cycles_max, mttr)
            runtime.publish(
                events.ContainerRepaired(
                    job.finish_at,
                    task=job.owner or "",
                    container=container_id,
                    atom=job.atom,
                    injected_at=repaired.injected_at,
                    mttr=mttr,
                )
            )

    def on_container_failed(self, container_id: int, now: int) -> None:
        """A container was retired: close any open episode bookkeeping."""
        self._mark(now)
        self._corrupted.pop(container_id, None)
        self._quarantined.pop(container_id, None)
        self._repair_of.pop(container_id, None)
        self._attempts = {
            key: n for key, n in self._attempts.items() if key[0] != container_id
        }
        self._retries = [r for r in self._retries if r.container != container_id]

    def note_execution(
        self, runtime: "RisppRuntime", si: "SpecialInstruction", now: int
    ) -> None:
        """An SI fell back to software; attribute it to faults if the
        atoms lost to open quarantines would have enabled a molecule."""
        if not self._quarantined:
            return
        self._mark(now)
        lost_counts: dict[str, int] = {}
        for episode in self._quarantined.values():
            lost_counts[episode.atom] = lost_counts.get(episode.atom, 0) + 1
        available = runtime.fabric.available_atoms()
        restored = available + available.space.molecule(lost_counts)
        if si.best_available(restored) is not None:
            self.stats.sw_fallback_executions += 1

    def finalize(self, now: int) -> None:
        """Close the degraded-time integral at the end of a run."""
        self._mark(now)

    # -- accounting -------------------------------------------------------

    def _mark(self, t: int) -> None:
        """Advance the degraded-cycles integral to cycle ``t``."""
        if t > self._last_mark:
            if self._corrupted or self._quarantined:
                self.stats.degraded_cycles += t - self._last_mark
            self._last_mark = t

    def open_episodes(self) -> int:
        """Corruption/quarantine episodes still unresolved (for tests)."""
        return len(self._corrupted) + len(self._quarantined)
