"""The reconfiguration port: serialised Atom rotations (SelectMap model).

The prototype loads partial bitstreams through the single SelectMap
interface, so rotations are strictly sequential; the rotation latency of
an Atom is its bitstream size divided by the configuration rate
(calibrated from Table 1; see :mod:`repro.hardware.atom_specs`).

Timing semantics (they matter for the Fig. 6 scenario): a rotation
*request* reserves the target container and fixes the job's start/finish
cycles, but the container keeps serving its old Atom until the port
actually starts writing the new bitstream.  This is why, at the paper's
T3, Task B's SI0 still executes on containers that were already
reallocated to Task A — they still contain SI0's Atoms while earlier
rotations occupy the port.  :meth:`ReconfigurationPort.advance` moves
simulated time forward, performing evictions at each job's start and
completions at its finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.atom import AtomCatalogue
from ..state import Ref, counter, state, wiring
from .atom_specs import SELECTMAP_BYTES_PER_US
from .fabric import Fabric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.registry import MetricRegistry


@dataclass
class RotationJob:
    """One scheduled rotation."""

    atom: str
    container_id: int
    requested_at: int
    started_at: int
    finish_at: int
    #: Atom the container held at request time (evicted when the job starts);
    #: only the request's trace event reads it.
    evicted: str | None = field(default=None, metadata={"role": "counter"})
    started: bool = field(default=False, compare=False)
    completed: bool = field(default=False, compare=False)
    owner: str | None = None
    #: Repair rotation re-loading a quarantined container's Atom; the only
    #: kind of rotation a quarantined container accepts.
    repair: bool = field(default=False, compare=False)
    #: Mid-write bitstream error killed this job (the write never finished).
    aborted: bool = field(default=False, compare=False)

    @property
    def duration(self) -> int:
        return self.finish_at - self.started_at

    @property
    def queue_delay(self) -> int:
        return self.started_at - self.requested_at


class ReconfigurationPort:
    """Single configuration port; one rotation in flight at a time."""

    #: The state declaration (roles: :mod:`repro.state`).
    STATE_ROLES = {
        "busy_until": state(int),
        # Retired history; the jobs still pending are state via _pending.
        "jobs": counter(list[RotationJob]),
        "_pending": state(list[Ref("jobs")]),  # type: ignore[valid-type, misc]
        **wiring(
            "catalogue", "core_mhz", "bytes_per_us", "_runtime", "_ev_completed", "_obs_on",
            "_m_queue_depth", "_m_latency", "_m_queue_delay", "_m_busy",
        ),
    }

    def __init__(
        self,
        catalogue: AtomCatalogue,
        *,
        core_mhz: float = 100.0,
        bytes_per_us: float = SELECTMAP_BYTES_PER_US,
        metrics: "MetricRegistry | None" = None,
    ):
        if core_mhz <= 0:
            raise ValueError("core frequency must be positive")
        if bytes_per_us <= 0:
            raise ValueError("configuration rate must be positive")
        self.catalogue = catalogue
        self.core_mhz = core_mhz
        self.bytes_per_us = bytes_per_us
        self.busy_until = 0
        self.jobs: list[RotationJob] = []
        self._pending: list[RotationJob] = []
        #: Set by :meth:`attach`: the owning runtime, which is published
        #: a ``RotationCompleted`` per retired job.  Standalone
        #: ports (unit tests, planners) stay unattached and communicate
        #: through :meth:`advance`'s return value alone.
        self._runtime = None
        self._ev_completed: type | None = None
        self._bind_metrics(metrics)

    def attach(self, runtime) -> None:
        """Bind to one runtime (called by ``RisppRuntime.__init__``).

        Once attached, every job this port retires is published as a
        :class:`repro.runtime.events.RotationCompleted` through the
        runtime's :meth:`publish` — after the port's own state is fully settled, so
        handlers that issue new rotations never race the completion scan.
        """
        if self._runtime is not None and self._runtime is not runtime:
            raise ValueError("reconfiguration port is already attached")
        from ..runtime.events import RotationCompleted

        self._runtime = runtime
        self._ev_completed = RotationCompleted

    def _bind_metrics(self, metrics: "MetricRegistry | None") -> None:
        from ..obs.registry import DISABLED

        obs = metrics if metrics is not None else DISABLED
        self._obs_on = obs.enabled
        self._m_queue_depth = obs.gauge("port_queue_depth")
        self._m_latency = obs.histogram("rotation_latency_cycles")
        self._m_queue_delay = obs.histogram("rotation_queue_delay_cycles")
        self._m_busy = obs.counter("port_busy_cycles_total")

    def rotation_cycles(self, atom: str) -> int:
        """Rotation latency of one Atom kind, in core cycles."""
        kind = self.catalogue.get(atom)
        if not kind.reconfigurable:
            raise ValueError(f"atom kind {atom!r} is static and never rotates")
        if kind.bitstream_bytes <= 0:
            raise ValueError(f"atom kind {atom!r} has no bitstream size")
        time_us = kind.bitstream_bytes / self.bytes_per_us
        return max(1, round(time_us * self.core_mhz))

    def is_reserved(self, container_id: int) -> bool:
        """True while a scheduled or in-flight rotation targets the container."""
        return any(j.container_id == container_id for j in self._pending)

    def request(
        self,
        fabric: Fabric,
        atom: str,
        container_id: int,
        now: int,
        *,
        owner: str | None = None,
        repair: bool = False,
    ) -> RotationJob:
        """Queue a rotation of ``atom`` into ``container_id`` at cycle ``now``.

        The container is reserved immediately but keeps serving its current
        Atom until the port starts this job (``started_at``); the new Atom
        becomes usable at ``finish_at``.  A quarantined container only
        accepts ``repair=True`` requests.
        """
        fabric.check_rotatable(atom)
        if self.is_reserved(container_id):
            raise ValueError(
                f"container {container_id} already has a rotation scheduled"
            )
        container = fabric.container(container_id)
        if container.failed:
            raise ValueError(
                f"container {container_id} is failed and out of service"
            )
        if container.quarantined and not repair:
            raise ValueError(
                f"container {container_id} is quarantined; only a repair "
                "rotation may target it"
            )
        if container.is_busy():  # pragma: no cover - reserved covers this
            raise ValueError(f"container {container_id} is rotating")
        started = max(now, self.busy_until)
        finish = started + self.rotation_cycles(atom)
        job = RotationJob(
            atom=atom,
            container_id=container_id,
            requested_at=now,
            started_at=started,
            finish_at=finish,
            evicted=container.atom,
            owner=owner,
            repair=repair,
        )
        if owner is not None:
            container.reassign(owner)
        self.busy_until = finish
        self.jobs.append(job)
        self._pending.append(job)
        if self._obs_on:
            self._m_queue_depth.set(len(self._pending))
        return job

    def advance(self, fabric: Fabric, now: int) -> list[RotationJob]:
        """Process starts and completions up to cycle ``now``.

        Returns the jobs *completed* by this call, in completion order.

        Jobs whose target container died are dropped first: the write is
        lost and the reservation released.  Dropping a *not-yet-started*
        job frees its slot on the serial port, so the remaining unstarted
        jobs are pulled forward and ``busy_until`` is recomputed — later
        rotations must not queue behind a phantom bitstream write.
        """
        if any(
            fabric.container(j.container_id).failed for j in self._pending
        ):
            self._drop_failed(fabric, now)
        completed: list[RotationJob] = []
        for job in sorted(self._pending, key=lambda j: j.started_at):
            container = fabric.container(job.container_id)
            if not job.started and job.started_at <= now:
                container.evict()
                container.begin_rotation(
                    job.atom, job.finish_at, owner=job.owner,
                    repair=job.repair,
                )
                job.started = True
            if job.started and not job.completed and job.finish_at <= now:
                container.complete_rotation(job.finish_at)
                job.completed = True
                completed.append(job)
        for job in completed:
            self._pending.remove(job)
        if self._obs_on and completed:
            for job in completed:
                self._m_latency.observe(job.finish_at - job.requested_at)
                self._m_queue_delay.observe(job.queue_delay)
                self._m_busy.inc(job.duration)
            self._m_queue_depth.set(len(self._pending))
        if self._runtime is not None and completed:
            # Publish with the port fully settled: reservation released,
            # queue depth updated.  Handlers may request new rotations —
            # those append to ``_pending`` without disturbing this scan.
            assert self._ev_completed is not None
            for job in completed:
                self._runtime.publish(self._ev_completed(job.finish_at, job=job))
        return completed

    def _drop_failed(self, fabric: Fabric, now: int) -> None:
        """Remove jobs targeting failed containers; close the port gap.

        The remaining unstarted jobs keep their relative order but start
        as early as the port allows: after any write still in flight and
        never before the drop is processed (``now``) or the job's own
        request cycle.
        """
        dropped = False
        for job in list(self._pending):
            if fabric.container(job.container_id).failed:
                dropped = True
                self._pending.remove(job)
        if not dropped:
            return
        if self._obs_on:
            self._m_queue_depth.set(len(self._pending))
        self._resequence(now)

    def _resequence(self, now: int) -> None:
        """Recompute start/finish cycles after jobs left the queue.

        Unstarted jobs keep their relative order but start as early as
        the port allows: after any write still in flight and never before
        the requeue cycle (``now``) or the job's own request cycle.
        ``busy_until`` ends at the last job's finish — or ``now`` when
        the queue drained, never earlier (the port cannot re-lease time
        it already spent).
        """
        cursor = now
        for job in sorted(self._pending, key=lambda j: j.started_at):
            if job.started:
                cursor = max(cursor, job.finish_at)
                continue
            duration = job.finish_at - job.started_at
            job.started_at = max(cursor, job.requested_at)
            job.finish_at = job.started_at + duration
            cursor = job.finish_at
        self.busy_until = cursor

    def abort_active(self, fabric: Fabric, now: int) -> RotationJob | None:
        """Kill the write in flight at cycle ``now`` (SelectMap error model).

        The actively writing job — started, not completed, with
        ``started_at <= now < finish_at`` — is aborted: its container's
        partial configuration is discarded (back to EMPTY), the
        reservation is released, and the queue behind it is pulled
        forward from ``now``.  Returns the aborted job, or ``None`` when
        no write is in flight at ``now`` (the fault hits an idle port).
        """
        for job in self._pending:
            if (
                job.started
                and not job.completed
                and job.started_at <= now < job.finish_at
            ):
                fabric.container(job.container_id).abort_rotation()
                job.aborted = True
                self._pending.remove(job)
                if self._obs_on:
                    self._m_queue_depth.set(len(self._pending))
                self._resequence(now)
                return job
        return None

    def is_idle(self) -> bool:
        """True when no rotation is scheduled or in flight."""
        return not self._pending

    def next_event(self) -> int | None:
        """Cycle of the earliest pending start or completion (None if idle)."""
        times = []
        for j in self._pending:
            if not j.started:
                times.append(j.started_at)
            if not j.completed:
                times.append(j.finish_at)
        return min(times) if times else None

    def next_completion(self) -> int | None:
        """Cycle of the earliest pending completion (None when idle)."""
        if not self._pending:
            return None
        return min(j.finish_at for j in self._pending)

    def pending_jobs(self) -> list[RotationJob]:
        return list(self._pending)

    def total_rotations(self) -> int:
        return len(self.jobs)
