"""The reference state machine of the RISPP run-time model (rispp-verify).

:class:`ReferenceMachine` replays a recorded event trace (any
:class:`~repro.sim.trace.Trace`) against an *independent* model of the
paper's hardware semantics: Atom Containers hold at most one Atom, every
rotation serialises through the single SelectMap port (request fixes
``started = max(now, busy_until)``, eviction happens at the start, the
Atom becomes usable at the finish), failed containers drop their jobs and
the queue closes the gap, and an SI execution may only use a molecule
whose atom vector is ≤ the reconstructed fabric state (§3.1's residual
``o ∸ m`` must be zero).  Divergence between the trace and the model is
emitted as :class:`~repro.analysis.diagnostics.Diagnostic` findings
(rules ``TRC001``–``TRC013``); replay continues best-effort after a
finding so one corruption does not mask independent ones.

The machine is deliberately *not* the runtime manager: it never plans,
selects or replaces — it only re-derives hardware state from the events
themselves.  That keeps it a genuine second opinion: a planner bug that
issues an impossible rotation cannot also hide it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from ..core.library import SILibrary
from ..core.molecule import Molecule
from ..core.si import MoleculeImpl, SpecialInstruction
from ..hardware.atom_specs import SELECTMAP_BYTES_PER_US
from ..hardware.energy import EnergyModel
from ..hardware.reconfig import ReconfigurationPort
from ..sim.trace import Event, EventKind
from .diagnostics import Diagnostic, Severity
from .rules import diag

#: Events recorded by the manager's public entry points.  The manager
#: processes (and records) every due rotation completion *before* any of
#: these, so at such an event every completed job must have been reported.
_ENTRY_KINDS = frozenset(
    {
        EventKind.FORECAST,
        EventKind.FORECAST_END,
        EventKind.SI_EXECUTED,
        EventKind.SI_MODE_SWITCH,
        EventKind.CONTAINER_FAILED,
        EventKind.FAULT_INJECTED,
        EventKind.FAULT_DETECTED,
        EventKind.CONTAINER_QUARANTINED,
        EventKind.CONTAINER_REPAIRED,
        EventKind.ROTATION_RETRIED,
    }
)


@dataclass
class _ContainerState:
    """Replayed view of one Atom Container."""

    container_id: int
    atom: str | None = None
    loading: str | None = None
    failed: bool = False
    #: Silent SEU corruption (the atom still serves; see TRC014/TRC015).
    corrupted: bool = False
    #: The scrubber reported the corruption (FAULT_DETECTED seen).
    detected: bool = False
    #: Out of service pending a repair rotation.
    quarantined: bool = False


@dataclass
class _ReplayJob:
    """Replayed view of one rotation job on the serial port."""

    atom: str
    container_id: int
    requested_at: int
    started_at: int
    finish_at: int
    started: bool = False
    completed: bool = False
    reported: bool = False
    #: Repair rotation allowed to target a quarantined container.
    repair: bool = False

    @property
    def duration(self) -> int:
        return self.finish_at - self.started_at


@dataclass
class _PendingSwitch:
    """A recorded SI_MODE_SWITCH awaiting its SI_EXECUTED confirmation."""

    cycle: int
    to_mode: str
    cycles: object
    event_index: int


@dataclass
class _Accounting:
    """Per-event deltas accumulated during replay (TRC007 ground truth)."""

    si_executions: int = 0
    sw_executions: int = 0
    hw_executions: int = 0
    si_cycles: int = 0
    rotations_requested: int = 0
    mode_switches: int = 0
    rotation_energy_nj: float = 0.0
    execution_energy_nj: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "si_executions": self.si_executions,
            "sw_executions": self.sw_executions,
            "hw_executions": self.hw_executions,
            "si_cycles": self.si_cycles,
            "rotations_requested": self.rotations_requested,
            "mode_switches": self.mode_switches,
            "rotation_energy_nj": self.rotation_energy_nj,
            "execution_energy_nj": self.execution_energy_nj,
        }


class ReferenceMachine:
    """Replays one trace against the formal RISPP hardware model."""

    def __init__(
        self,
        library: SILibrary,
        containers: int,
        *,
        core_mhz: float = 100.0,
        bytes_per_us: float | None = None,
        static_multiplicity: int = 16,
        totals: Mapping[str, float] | None = None,
        energy_model: EnergyModel | None = None,
        subject: str = "",
    ) -> None:
        self.library = library
        self.subject = subject
        self.totals = dict(totals) if totals is not None else None
        self.energy_model = energy_model
        catalogue = library.catalogue
        self._port_model = ReconfigurationPort(
            catalogue,
            core_mhz=core_mhz,
            bytes_per_us=(
                bytes_per_us if bytes_per_us is not None
                else SELECTMAP_BYTES_PER_US
            ),
        )
        self._space = catalogue.space
        self._reconfigurable = set(catalogue.reconfigurable_names())
        # Mirror of Fabric._static: helper atoms at full multiplicity plus
        # the baseline instances of reconfigurable kinds.
        self._static_counts: dict[str, int] = {
            kind.name: static_multiplicity for kind in catalogue.static_kinds()
        }
        for name, baseline in catalogue.baseline_counts().items():
            if baseline:
                self._static_counts[name] = baseline
        self._containers = [_ContainerState(i) for i in range(containers)]
        self._pending: list[_ReplayJob] = []
        self._retired: list[_ReplayJob] = []
        self._busy_until = 0
        self._clock = 0
        self._available: Molecule | None = None
        #: ``best_available`` per replayed available molecule, then per SI
        #: name.  A stream revisits few fabric states, so each (SI,
        #: available) pair is derived once; the memo is this machine's
        #: own (not the SI's, not the runtime's dispatch memo), so the
        #: oracle shares no cache with what it checks.
        self._best_memo: dict[Molecule, dict[str, MoleculeImpl | None]] = {}
        self._best_here: dict[str, MoleculeImpl | None] = {}
        self._last_mode: dict[tuple[str, str], str] = {}
        self._pending_switch: dict[tuple[str, str], _PendingSwitch] = {}
        self._accounting = _Accounting()
        #: Open quarantines awaiting repair or retirement, by container id
        #: (value: the cycle the quarantine opened) — TRC014 at finish().
        self._open_quarantines: dict[int, int] = {}
        self.findings: list[Diagnostic] = []

    # -- public driver ----------------------------------------------------

    def verify(self, events: Sequence[Event]) -> list[Diagnostic]:
        """Replay ``events`` and run the end-of-trace checks."""
        self.replay(events)
        self.finish()
        return self.findings

    def replay(self, events: Iterable[Event]) -> None:
        last_cycle = 0
        for index, event in enumerate(events):
            cycle = event.cycle
            if not isinstance(cycle, int) or cycle < 0 or cycle < last_cycle:
                self._emit(
                    "TRC001",
                    f"event #{index} ({event.kind.value}) at cycle {cycle!r} "
                    f"after cycle {last_cycle}",
                    location=f"event {index}",
                    cycle=cycle,
                    previous_cycle=last_cycle,
                )
                # Clamp and keep replaying: one bad timestamp must not
                # mask independent corruptions later in the trace.
                cycle = last_cycle
            last_cycle = max(last_cycle, cycle)
            self._advance_to(cycle)
            self._clock = max(self._clock, cycle)
            if event.kind in _ENTRY_KINDS:
                self._check_reported_completions(index, cycle)
            self._dispatch(index, cycle, event)

    def finish(self) -> None:
        """End-of-trace checks: dangling switches, dangling completions,
        and (when totals were provided) the TRC007 accounting rules."""
        for (task, si_name), pending in sorted(self._pending_switch.items()):
            self._emit(
                "TRC011",
                f"mode switch of SI {si_name!r} (task {task!r}) at cycle "
                f"{pending.cycle} was never confirmed by an execution",
                location=f"event {pending.event_index}",
                si=si_name,
            )
        for job in self._retired:
            if not job.reported:
                self._emit(
                    "TRC004",
                    f"rotation of {job.atom!r} into container "
                    f"{job.container_id} completed at cycle {job.finish_at} "
                    "without a completion event",
                    location=f"container {job.container_id}",
                    atom=job.atom,
                    finish=job.finish_at,
                )
                job.reported = True
        for container_id, opened in sorted(self._open_quarantines.items()):
            self._emit(
                "TRC014",
                f"container {container_id} was quarantined at cycle {opened} "
                "and never repaired or retired by the end of the trace",
                location=f"container {container_id}",
                container=container_id,
                quarantined_at=opened,
            )
        self._check_totals()

    # -- reconstructed state ----------------------------------------------

    def available_molecule(self) -> Molecule:
        """Atoms usable right now (static + baseline + loaded containers)."""
        if self._available is None:
            counts = dict(self._static_counts)
            for cont in self._containers:
                if (
                    cont.atom is not None
                    and not cont.failed
                    and not cont.quarantined
                ):
                    counts[cont.atom] = counts.get(cont.atom, 0) + 1
            self._available = self._space.molecule(counts)
            self._best_here = self._best_memo.setdefault(self._available, {})
        return self._available

    def best_available(self, si: SpecialInstruction) -> MoleculeImpl | None:
        """``si``'s fastest molecule on the replayed fabric (the §5 rule
        TRC013 checks), memoized per (SI, available molecule)."""
        available = self.available_molecule()
        best_here = self._best_here
        if si.name not in best_here:
            best_here[si.name] = si.best_available(available)
        return best_here[si.name]

    def accounting(self) -> dict[str, float]:
        """The per-event delta sums accumulated so far."""
        return self._accounting.as_dict()

    # -- time -------------------------------------------------------------

    def _advance_to(self, cycle: int) -> None:
        """Perform due rotation starts (evictions) and finishes in order."""
        while True:
            start_job: _ReplayJob | None = None
            finish_job: _ReplayJob | None = None
            for job in self._pending:
                if not job.started:
                    if start_job is None or job.started_at < start_job.started_at:
                        start_job = job
                elif not job.completed:
                    if finish_job is None or job.finish_at < finish_job.finish_at:
                        finish_job = job
            next_start = start_job.started_at if start_job is not None else None
            next_finish = finish_job.finish_at if finish_job is not None else None
            if (
                start_job is not None
                and next_start is not None
                and next_start <= cycle
                and (next_finish is None or next_start <= next_finish)
            ):
                # A non-repair job never starts on a quarantined container:
                # a quarantine adopts every queued job of its container as
                # the repair, and non-repair requests there are refused.
                cont = self._containers[start_job.container_id]
                cont.atom = None
                cont.loading = start_job.atom
                cont.corrupted = False
                cont.detected = False
                start_job.started = True
                self._available = None
            elif finish_job is not None and next_finish is not None and next_finish <= cycle:
                cont = self._containers[finish_job.container_id]
                cont.atom = finish_job.atom
                cont.loading = None
                finish_job.completed = True
                self._pending.remove(finish_job)
                self._retired.append(finish_job)
                self._available = None
            else:
                return

    def _check_reported_completions(self, index: int, cycle: int) -> None:
        for job in self._retired:
            if job.reported or job.finish_at > cycle:
                continue
            job.reported = True
            self._emit(
                "TRC004",
                f"rotation of {job.atom!r} into container {job.container_id} "
                f"completed at cycle {job.finish_at} but no completion event "
                f"was recorded before event #{index} at cycle {cycle}",
                location=f"event {index}",
                atom=job.atom,
                container=job.container_id,
                finish=job.finish_at,
            )

    # -- event handlers ---------------------------------------------------

    def _dispatch(self, index: int, cycle: int, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.FORECAST:
            self._on_forecast(index, event)
        elif kind is EventKind.FORECAST_END:
            self._require_si(index, event.si)
        elif kind is EventKind.REALLOCATION:
            self._on_reallocation(index, event)
        elif kind is EventKind.ROTATION_REQUESTED:
            self._on_rotation_requested(index, cycle, event)
        elif kind is EventKind.ROTATION_COMPLETED:
            self._on_rotation_completed(index, cycle, event)
        elif kind is EventKind.SI_MODE_SWITCH:
            self._on_mode_switch(index, cycle, event)
        elif kind is EventKind.SI_EXECUTED:
            self._on_si_executed(index, cycle, event)
        elif kind is EventKind.CONTAINER_FAILED:
            self._on_container_failed(index, cycle, event)
        elif kind is EventKind.FAULT_INJECTED:
            self._on_fault_injected(index, cycle, event)
        elif kind is EventKind.FAULT_DETECTED:
            self._on_fault_detected(index, cycle, event)
        elif kind is EventKind.CONTAINER_QUARANTINED:
            self._on_container_quarantined(index, cycle, event)
        elif kind is EventKind.CONTAINER_REPAIRED:
            self._on_container_repaired(index, cycle, event)
        elif kind is EventKind.ROTATION_RETRIED:
            self._on_rotation_retried(index, cycle, event)
        # TASK_STEP and future kinds are neutral: only the clock matters.

    def _on_forecast(self, index: int, event: Event) -> None:
        if not self._require_si(index, event.si):
            return
        detail = event.detail
        expected = detail.get("expected")
        priority = detail.get("priority")
        if not isinstance(expected, (int, float)) or expected < 0:
            self._emit(
                "TRC012",
                f"forecast for SI {event.si!r} carries expected executions "
                f"{expected!r} (need a non-negative number)",
                location=f"event {index}",
                si=event.si,
                expected=expected,
            )
        elif not isinstance(priority, (int, float)) or priority <= 0:
            self._emit(
                "TRC012",
                f"forecast for SI {event.si!r} carries priority {priority!r} "
                "(need a positive number)",
                location=f"event {index}",
                si=event.si,
                priority=priority,
            )

    def _on_reallocation(self, index: int, event: Event) -> None:
        container = event.detail.get("container")
        if not self._valid_container(container):
            self._emit(
                "TRC003",
                f"reallocation names container {container!r} "
                f"(platform has {len(self._containers)})",
                location=f"event {index}",
                container=container,
            )

    def _on_rotation_requested(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        atom = detail.get("atom", detail.get("detail_atom"))
        container_id = detail.get("container")
        starts = detail.get("starts")
        finishes = detail.get("finishes")
        evicts = detail.get("evicts")
        where = f"event {index}"
        self._accounting.rotations_requested += 1
        if not isinstance(atom, str) or atom not in self._reconfigurable:
            self._emit(
                "TRC009",
                f"rotation requests atom {atom!r}, which is not a "
                "reconfigurable kind of this library",
                location=where,
                atom=atom,
            )
            return
        kind = self.library.catalogue.get(atom)
        if self.energy_model is not None:
            self._accounting.rotation_energy_nj += (
                kind.bitstream_bytes * self.energy_model.rotation_nj_per_byte
            )
        if not self._valid_container(container_id):
            self._emit(
                "TRC003",
                f"rotation of {atom!r} targets container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        repair = bool(detail.get("repair"))
        if cont.failed:
            self._emit(
                "TRC003",
                f"rotation of {atom!r} targets failed container {container_id}",
                location=where,
                container=container_id,
            )
            return
        if cont.quarantined and not repair:
            self._emit(
                "TRC015",
                f"rotation of {atom!r} targets quarantined container "
                f"{container_id} without being a repair",
                location=where,
                container=container_id,
                atom=atom,
            )
            return
        if any(j.container_id == container_id for j in self._pending):
            self._emit(
                "TRC004",
                f"container {container_id} already has a rotation scheduled "
                f"or in flight when {atom!r} is requested at cycle {cycle}",
                location=where,
                container=container_id,
                atom=atom,
            )
            return
        if not isinstance(starts, int) or not isinstance(finishes, int):
            self._emit(
                "TRC008",
                f"rotation of {atom!r} carries malformed timing "
                f"starts={starts!r} finishes={finishes!r}",
                location=where,
                starts=starts,
                finishes=finishes,
            )
            return
        if evicts != cont.atom:
            self._emit(
                "TRC004",
                f"rotation into container {container_id} claims to evict "
                f"{evicts!r} but the container holds {cont.atom!r}",
                location=where,
                container=container_id,
                claimed=evicts,
                actual=cont.atom,
            )
        elif starts < self._busy_until:
            self._emit(
                "TRC002",
                f"rotation of {atom!r} starts at cycle {starts} while the "
                f"port is busy until cycle {self._busy_until}",
                location=where,
                starts=starts,
                busy_until=self._busy_until,
            )
        elif starts != max(cycle, self._busy_until):
            self._emit(
                "TRC008",
                f"rotation of {atom!r} starts at cycle {starts}; the serial "
                f"port model starts it at {max(cycle, self._busy_until)}",
                location=where,
                starts=starts,
                expected=max(cycle, self._busy_until),
            )
        elif finishes - starts != self._port_model.rotation_cycles(atom):
            self._emit(
                "TRC008",
                f"rotation of {atom!r} takes {finishes - starts} cycles; "
                f"its bitstream needs "
                f"{self._port_model.rotation_cycles(atom)}",
                location=where,
                duration=finishes - starts,
                expected=self._port_model.rotation_cycles(atom),
            )
        # Enqueue with the claimed times even after a timing finding so the
        # rest of the replay tracks the trace's own view of the hardware.
        self._pending.append(
            _ReplayJob(
                atom=atom,
                container_id=container_id,
                requested_at=cycle,
                started_at=starts,
                finish_at=finishes,
                repair=repair,
            )
        )
        self._busy_until = max(self._busy_until, finishes)
        self._advance_to(self._clock)

    def _on_rotation_completed(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        atom = detail.get("atom", detail.get("detail_atom"))
        container_id = detail.get("container")
        for job in self._retired:
            if (
                not job.reported
                and job.container_id == container_id
                and job.atom == atom
                and job.finish_at == cycle
            ):
                job.reported = True
                return
        self._emit(
            "TRC004",
            f"completion of {atom!r} in container {container_id!r} at cycle "
            f"{cycle} matches no replayed rotation",
            location=f"event {index}",
            atom=atom,
            container=container_id,
        )

    def _on_mode_switch(self, index: int, cycle: int, event: Event) -> None:
        if not self._require_si(index, event.si):
            return
        detail = event.detail
        from_mode = detail.get("from_mode")
        to_mode = detail.get("to_mode")
        key = (event.task, event.si)
        self._accounting.mode_switches += 1
        known = self._last_mode.get(key)
        if from_mode == to_mode or not isinstance(to_mode, str):
            self._emit(
                "TRC011",
                f"mode switch of SI {event.si!r} from {from_mode!r} to "
                f"{to_mode!r} is not a switch",
                location=f"event {index}",
                si=event.si,
            )
            return
        if known is not None and from_mode != known:
            self._emit(
                "TRC011",
                f"mode switch of SI {event.si!r} claims previous mode "
                f"{from_mode!r} but the replayed mode is {known!r}",
                location=f"event {index}",
                si=event.si,
                claimed=from_mode,
                actual=known,
            )
            return
        self._pending_switch[key] = _PendingSwitch(
            cycle=cycle,
            to_mode=to_mode,
            cycles=detail.get("cycles"),
            event_index=index,
        )

    def _on_si_executed(self, index: int, cycle: int, event: Event) -> None:
        if not self._require_si(index, event.si):
            return
        si = self.library.get(event.si)
        detail = event.detail
        mode = detail.get("mode")
        cycles = detail.get("cycles")
        where = f"event {index}"
        if not isinstance(mode, str) or not isinstance(cycles, int):
            self._emit(
                "TRC006",
                f"SI {event.si!r} execution carries malformed detail "
                f"mode={mode!r} cycles={cycles!r}",
                location=where,
                mode=mode,
                cycles=cycles,
            )
            return
        available = self.available_molecule()
        consistent = self._check_execution(
            index, si, mode, cycles, available
        )
        if consistent:
            # An inconsistent execution is noise, not a mode change: the
            # replayed mode state keeps following the coherent events.
            self._confirm_mode(index, cycle, event, mode, cycles)
        self._accounting.si_executions += 1
        self._accounting.si_cycles += cycles
        if mode == "SW":
            self._accounting.sw_executions += 1
        else:
            self._accounting.hw_executions += 1
        if self.energy_model is not None and consistent:
            slices = 0
            if mode != "SW":
                impl = self.best_available(si)
                if impl is not None:
                    for kind_name in impl.molecule.kinds_used():
                        kind = self.library.catalogue.get(kind_name)
                        slices += kind.slices * impl.molecule.count(kind_name)
            self._accounting.execution_energy_nj += (
                self.energy_model.execution_energy_nj(slices, cycles)
            )

    def _check_execution(
        self,
        index: int,
        si: SpecialInstruction,
        mode: str,
        cycles: int,
        available: Molecule,
    ) -> bool:
        """The §3.1 residency and §5 best-available rules for one execution."""
        where = f"event {index}"
        if mode == "SW":
            if cycles != si.software_cycles:
                self._emit(
                    "TRC006",
                    f"SI {si.name!r} ran in SW mode for {cycles} cycles; its "
                    f"software molecule takes {si.software_cycles}",
                    location=where,
                    cycles=cycles,
                    expected=si.software_cycles,
                )
                return False
        else:
            candidates = [
                impl
                for impl in si.implementations
                if (impl.label or "HW") == mode and impl.cycles == cycles
            ]
            if not candidates:
                self._emit(
                    "TRC006",
                    f"SI {si.name!r} claims mode {mode!r} at {cycles} cycles; "
                    "no molecule of the library matches",
                    location=where,
                    mode=mode,
                    cycles=cycles,
                )
                return False
            if not any(impl.molecule <= available for impl in candidates):
                missing = (candidates[0].molecule - available).as_dict()
                self._emit(
                    "TRC005",
                    f"SI {si.name!r} executed its {cycles}-cycle molecule "
                    f"but the fabric lacks {missing} (residual o ∸ m "
                    "is non-zero)",
                    location=where,
                    missing=missing,
                    mode=mode,
                )
                return False
        best = self.best_available(si)
        expected = si.software_cycles if best is None else best.cycles
        if cycles != expected:
            self._emit(
                "TRC013",
                f"SI {si.name!r} ran for {cycles} cycles but the best "
                f"available molecule takes {expected} (gradual upgrade "
                "must always use the fastest resident molecule)",
                location=where,
                cycles=cycles,
                expected=expected,
            )
            return False
        return True

    def _confirm_mode(
        self, index: int, cycle: int, event: Event, mode: str, cycles: int
    ) -> None:
        key = (event.task, event.si)
        known = self._last_mode.get(key)
        pending = self._pending_switch.pop(key, None)
        if known is not None and mode != known:
            if (
                pending is None
                or pending.cycle != cycle
                or pending.to_mode != mode
                or pending.cycles != cycles
            ):
                self._emit(
                    "TRC011",
                    f"SI {event.si!r} changed mode {known!r} -> {mode!r} at "
                    f"cycle {cycle} without a matching mode-switch event",
                    location=f"event {index}",
                    si=event.si,
                    previous=known,
                    mode=mode,
                )
        elif pending is not None:
            self._emit(
                "TRC011",
                f"mode switch of SI {event.si!r} to {pending.to_mode!r} was "
                f"recorded but the execution at cycle {cycle} stayed in "
                f"mode {mode!r}",
                location=f"event {index}",
                si=event.si,
                mode=mode,
            )
        self._last_mode[key] = mode

    def _on_container_failed(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        container_id = detail.get("container")
        lost = detail.get("lost_atom")
        if not self._valid_container(container_id):
            self._emit(
                "TRC003",
                f"failure event names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=f"event {index}",
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        expected_lost = cont.loading if cont.loading is not None else cont.atom
        if lost != expected_lost:
            self._emit(
                "TRC004",
                f"container {container_id} failed losing {lost!r} but the "
                f"replayed state holds {expected_lost!r}",
                location=f"event {index}",
                container=container_id,
                claimed=lost,
                actual=expected_lost,
            )
        cont.failed = True
        cont.atom = None
        cont.loading = None
        cont.corrupted = False
        cont.detected = False
        cont.quarantined = False
        # Retirement resolves an open quarantine (repair became moot).
        self._open_quarantines.pop(container_id, None)
        self._available = None
        self._drop_and_resequence(container_id, cycle)

    def _drop_and_resequence(self, container_id: int, now: int) -> None:
        """Mirror of ``ReconfigurationPort._drop_failed``: jobs targeting
        the dead container vanish and unstarted jobs close the port gap."""
        dropped = [j for j in self._pending if j.container_id == container_id]
        if not dropped:
            return
        for job in dropped:
            self._pending.remove(job)
        self._resequence(now)

    def _resequence(self, now: int) -> None:
        """Mirror of ``ReconfigurationPort._resequence``: unstarted jobs
        close the port gap left by dropped or aborted writes."""
        cursor = now
        for job in sorted(self._pending, key=lambda j: j.started_at):
            if job.started:
                cursor = max(cursor, job.finish_at)
                continue
            duration = job.duration
            job.started_at = max(cursor, job.requested_at)
            job.finish_at = job.started_at + duration
            cursor = job.finish_at
        self._busy_until = cursor
        self._advance_to(self._clock)

    # -- fault events -------------------------------------------------------

    def _on_fault_injected(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        effect = detail.get("effect")
        where = f"event {index}"
        if effect == "none":
            return
        container_id = detail.get("container")
        if not self._valid_container(container_id):
            self._emit(
                "TRC014",
                f"fault injection names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        if effect == "corrupted":
            if (
                cont.atom is None
                or cont.failed
                or cont.quarantined
                or cont.corrupted
            ):
                self._emit(
                    "TRC014",
                    f"transient fault claims to corrupt container "
                    f"{container_id}, which holds no healthy loaded atom",
                    location=where,
                    container=container_id,
                )
                return
            atom = detail.get("atom")
            if atom != cont.atom:
                self._emit(
                    "TRC014",
                    f"transient fault in container {container_id} claims atom "
                    f"{atom!r} but the replayed state holds {cont.atom!r}",
                    location=where,
                    container=container_id,
                    claimed=atom,
                    actual=cont.atom,
                )
            cont.corrupted = True
        elif effect == "write_aborted":
            job = next(
                (j for j in self._pending if j.container_id == container_id),
                None,
            )
            if (
                job is None
                or not job.started
                or job.completed
                or not job.started_at <= cycle < job.finish_at
            ):
                self._emit(
                    "TRC014",
                    f"write abort on container {container_id} at cycle "
                    f"{cycle} matches no bitstream write in flight",
                    location=where,
                    container=container_id,
                )
                return
            self._pending.remove(job)
            cont.loading = None
            self._available = None
            self._resequence(cycle)
        elif effect == "failed":
            # The CONTAINER_FAILED event that follows performs the state
            # change; the injection record itself is informational.
            pass
        else:
            self._emit(
                "TRC014",
                f"fault injection carries unknown effect {effect!r}",
                location=where,
                effect=effect,
            )

    def _on_fault_detected(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        container_id = detail.get("container")
        where = f"event {index}"
        if not self._valid_container(container_id):
            self._emit(
                "TRC014",
                f"fault detection names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        if not cont.corrupted:
            self._emit(
                "TRC014",
                f"scrubber reports a fault in container {container_id} at "
                f"cycle {cycle}, but no silent corruption is open there",
                location=where,
                container=container_id,
            )
            return
        atom = detail.get("atom")
        if atom != cont.atom:
            self._emit(
                "TRC014",
                f"fault detection in container {container_id} claims atom "
                f"{atom!r} but the replayed state holds {cont.atom!r}",
                location=where,
                container=container_id,
                claimed=atom,
                actual=cont.atom,
            )
        cont.detected = True

    def _on_container_quarantined(
        self, index: int, cycle: int, event: Event
    ) -> None:
        detail = event.detail
        container_id = detail.get("container")
        where = f"event {index}"
        if not self._valid_container(container_id):
            self._emit(
                "TRC014",
                f"quarantine names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        if not cont.detected:
            self._emit(
                "TRC014",
                f"container {container_id} is quarantined at cycle {cycle} "
                "without a preceding fault detection",
                location=where,
                container=container_id,
            )
        atom = detail.get("atom")
        if cont.detected and atom != cont.atom:
            self._emit(
                "TRC014",
                f"quarantine of container {container_id} claims to drop atom "
                f"{atom!r} but the replayed state holds {cont.atom!r}",
                location=where,
                container=container_id,
                claimed=atom,
                actual=cont.atom,
            )
        # Follow the trace's claim either way so replay stays coherent.
        cont.atom = None
        cont.corrupted = False
        cont.detected = False
        cont.quarantined = True
        self._open_quarantines[container_id] = cycle
        self._available = None
        # A rotation the planner already queued into this container is
        # adopted as the repair (it overwrites the bad configuration).
        for job in self._pending:
            if job.container_id == container_id:
                job.repair = True

    def _on_container_repaired(
        self, index: int, cycle: int, event: Event
    ) -> None:
        detail = event.detail
        container_id = detail.get("container")
        where = f"event {index}"
        if not self._valid_container(container_id):
            self._emit(
                "TRC014",
                f"repair names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        assert isinstance(container_id, int)
        cont = self._containers[container_id]
        if not cont.quarantined:
            self._emit(
                "TRC014",
                f"container {container_id} is reported repaired at cycle "
                f"{cycle} but was not quarantined",
                location=where,
                container=container_id,
            )
            return
        if cont.atom is None:
            self._emit(
                "TRC014",
                f"container {container_id} is reported repaired at cycle "
                f"{cycle} but no repair rotation has completed there",
                location=where,
                container=container_id,
            )
        cont.quarantined = False
        self._open_quarantines.pop(container_id, None)
        self._available = None

    def _on_rotation_retried(self, index: int, cycle: int, event: Event) -> None:
        detail = event.detail
        container_id = detail.get("container")
        attempt = detail.get("attempt")
        retry_at = detail.get("retry_at")
        where = f"event {index}"
        if not self._valid_container(container_id):
            self._emit(
                "TRC014",
                f"rotation retry names container {container_id!r} "
                f"(platform has {len(self._containers)})",
                location=where,
                container=container_id,
            )
            return
        if not isinstance(attempt, int) or attempt < 1:
            self._emit(
                "TRC014",
                f"rotation retry carries malformed attempt {attempt!r}",
                location=where,
                attempt=attempt,
            )
        elif not isinstance(retry_at, int) or retry_at <= cycle:
            self._emit(
                "TRC014",
                f"rotation retry at cycle {cycle} is due at {retry_at!r}; "
                "backoff must land strictly in the future",
                location=where,
                retry_at=retry_at,
            )

    # -- totals ------------------------------------------------------------

    def _check_totals(self) -> None:
        """TRC007: reported run totals must equal the per-event delta sums.

        Skipped when the replay already found errors — corrupted events
        make both sides of the comparison meaningless.
        """
        if self.totals is None:
            return
        if any(d.severity >= Severity.ERROR for d in self.findings):
            return
        expected = self._accounting.as_dict()
        checked = set(expected)
        if self.energy_model is None:
            checked -= {"rotation_energy_nj", "execution_energy_nj"}
        for key in sorted(checked):
            if key not in self.totals:
                continue
            reported = self.totals[key]
            if not isinstance(reported, (int, float)):
                self._emit(
                    "TRC007",
                    f"reported total {key}={reported!r} is not a number",
                    location=key,
                )
                continue
            if reported < 0:
                self._emit(
                    "TRC007",
                    f"reported total {key}={reported} is negative",
                    location=key,
                    reported=reported,
                )
                continue
            want = expected[key]
            tolerance = 1e-6 * max(1.0, abs(want))
            if abs(reported - want) > tolerance:
                self._emit(
                    "TRC007",
                    f"reported total {key}={reported} but the per-event "
                    f"deltas sum to {want}",
                    location=key,
                    reported=reported,
                    expected=want,
                )

    # -- helpers -----------------------------------------------------------

    def _valid_container(self, container_id: object) -> bool:
        return (
            isinstance(container_id, int)
            and 0 <= container_id < len(self._containers)
        )

    def _require_si(self, index: int, si_name: str) -> bool:
        if si_name in self.library:
            return True
        self._emit(
            "TRC010",
            f"event references SI {si_name!r}, which the library does not "
            "define",
            location=f"event {index}",
            si=si_name,
        )
        return False

    def _emit(
        self,
        rule_id: str,
        message: str,
        *,
        location: str = "",
        **context: object,
    ) -> None:
        self.findings.append(
            diag(
                rule_id,
                message,
                subject=self.subject,
                location=location,
                **context,
            )
        )
