"""The reference state machine of the RISPP run-time model (rispp-verify).

:class:`ReferenceMachine` replays trace rows — the ``(cycle, kind, task,
si, detail)`` tuples that :meth:`~repro.sim.trace.Trace.rows` yields and
a golden-trace file holds — against an *independent* model of the
paper's hardware semantics: Atom Containers hold at most one Atom, every
rotation serialises through the single SelectMap port (request fixes
``started = max(now, busy_until)``, eviction happens at the start, the
Atom becomes usable at the finish), failed containers drop their jobs and
the queue closes the gap, and an SI execution may only use a molecule
whose atom vector is ≤ the reconstructed fabric state (§3.1's residual
``o ∸ m`` must be zero).  Divergence between the trace and the model is
emitted as :class:`~repro.analysis.diagnostics.Diagnostic` findings
(rules ``TRC001``–``TRC015``; TRC016 judges a recovery store, see
:mod:`repro.recovery.verify`); replay continues best-effort after a
finding so one corruption does not mask independent ones.

The machine is deliberately *not* the runtime manager: it never plans,
selects or replaces — it only re-derives hardware state from the events
themselves.  That keeps it a genuine second opinion: a planner bug that
issues an impossible rotation cannot also hide it here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import asdict, dataclass
from typing import Any

from ..core.library import SILibrary
from ..core.molecule import Molecule
from ..core.si import MoleculeImpl, SpecialInstruction
from ..hardware.atom_specs import SELECTMAP_BYTES_PER_US
from ..hardware.energy import EnergyModel
from ..hardware.reconfig import ReconfigurationPort
from ..sim.trace import EventKind
from .diagnostics import Diagnostic, Severity
from .rules import diag

#: One replayed event: ``(cycle, kind, task, si, detail)``.
Detail = dict[str, Any]
Row = tuple[int, EventKind, str, str, Detail]

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
    #: Repair rotation allowed to target a quarantined container.
    repair: bool = False


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
        # The library is frozen, so the molecules an execution may claim,
        # by (SI, mode, cycles), and each molecule's slices are derived
        # once here (slices keyed by id: the machine holds the library).
        self._candidates: dict[tuple[str, str, int], tuple[MoleculeImpl, ...]] = {}
        self._slices: dict[int, int] = {}
        for si in library:
            for impl in si.implementations:
                key = (si.name, impl.label or "HW", impl.cycles)
                self._candidates[key] = (*self._candidates.get(key, ()), impl)
                self._slices[id(impl)] = sum(
                    catalogue.get(name).slices * impl.molecule.count(name)
                    for name in impl.molecule.kinds_used()
                )
        self._containers = [_ContainerState(i) for i in range(containers)]
        self._pending: list[_ReplayJob] = []
        #: Finished jobs whose completion event is still due, in order.
        self._unreported: list[_ReplayJob] = []
        self._busy_until = 0
        self._clock = 0
        self._available: Molecule | None = None
        #: Verdicts per replayed available molecule: by SI name, the
        #: ``best_available`` molecule (TRC013); by (SI, mode, cycles),
        #: whether a claimed molecule is resident (TRC005).  A stream
        #: revisits few fabric states, so each is derived once; the memo
        #: is this machine's own (not the SI's, not the runtime's dispatch
        #: memo), so the oracle shares no cache with what it checks.
        self._best_memo: dict[Molecule, dict[object, object]] = {}
        self._best_here: dict[object, object] = {}
        self._last_mode: dict[tuple[str, str], str] = {}
        self._pending_switch: dict[tuple[str, str], _PendingSwitch] = {}
        self._accounting = _Accounting()
        #: Open quarantines awaiting repair or retirement, by container id
        #: (value: the cycle the quarantine opened) — TRC014 at finish().
        self._open_quarantines: dict[int, int] = {}
        self.findings: list[Diagnostic] = []

    # -- public driver ----------------------------------------------------

    def verify(self, rows: Iterable[Row]) -> list[Diagnostic]:
        """Replay ``rows`` and run the end-of-trace checks."""
        self.replay(rows)
        self.finish()
        return self.findings

    def replay(self, rows: Iterable[Row]) -> None:
        """Replay ``(cycle, kind, task, si, detail)`` rows in order."""
        for index, (cycle, kind, task, si, detail) in enumerate(rows):
            if not isinstance(cycle, int) or cycle < 0 or cycle < self._clock:
                self._flag(
                    index, "TRC001",
                    f"event #{index} ({kind.value}) at cycle {cycle!r} "
                    f"after cycle {self._clock}",
                    cycle=cycle,
                    previous_cycle=self._clock,
                )
                # Clamp and keep replaying: one bad timestamp must not
                # mask independent corruptions later in the trace.
                cycle = self._clock
            self._advance_to(cycle)
            self._clock = cycle
            if kind in _ENTRY_KINDS:
                self._check_reported_completions(index, cycle)
            handler = _HANDLERS.get(kind)
            # TASK_STEP and future kinds are neutral: only the clock matters.
            if handler is not None:
                handler(self, index, cycle, task, si, detail)

    def finish(self) -> None:
        """End-of-trace checks: dangling switches, dangling completions,
        and (when totals were provided) the TRC007 accounting rules."""
        for (task, si_name), pending in sorted(self._pending_switch.items()):
            self._flag(
                pending.event_index, "TRC011",
                f"mode switch of SI {si_name!r} (task {task!r}) at cycle "
                f"{pending.cycle} was never confirmed by an execution",
                si=si_name,
            )
        for job in self._unreported:
            self._emit(
                "TRC004",
                f"rotation of {job.atom!r} into container "
                f"{job.container_id} completed at cycle {job.finish_at} "
                "without a completion event",
                location=f"container {job.container_id}",
                atom=job.atom,
                finish=job.finish_at,
            )
        self._unreported = []
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
        return best_here[si.name]  # type: ignore[return-value]

    def accounting(self) -> dict[str, float]:
        """The per-event delta sums accumulated so far."""
        return asdict(self._accounting)

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
                elif finish_job is None or job.finish_at < finish_job.finish_at:
                    finish_job = job
            if (
                start_job is not None
                and start_job.started_at <= cycle
                and (finish_job is None or start_job.started_at <= finish_job.finish_at)
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
            elif finish_job is not None and finish_job.finish_at <= cycle:
                cont = self._containers[finish_job.container_id]
                cont.atom = finish_job.atom
                cont.loading = None
                self._pending.remove(finish_job)
                self._unreported.append(finish_job)
                self._available = None
            else:
                return

    def _check_reported_completions(self, index: int, cycle: int) -> None:
        due = [job for job in self._unreported if job.finish_at <= cycle]
        if due:
            self._unreported = [j for j in self._unreported if j.finish_at > cycle]
        for job in due:
            self._flag(
                index, "TRC004",
                f"rotation of {job.atom!r} into container {job.container_id} "
                f"completed at cycle {job.finish_at} but no completion event "
                f"was recorded before event #{index} at cycle {cycle}",
                atom=job.atom,
                container=job.container_id,
                finish=job.finish_at,
            )

    # -- event handlers: (index, cycle, task, si, detail), see _HANDLERS ---

    def _on_forecast(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        if not self._require_si(index, si):
            return
        expected = detail.get("expected")
        priority = detail.get("priority")
        if not isinstance(expected, (int, float)) or expected < 0:
            self._flag(
                index, "TRC012",
                f"forecast for SI {si!r} carries expected executions "
                f"{expected!r} (need a non-negative number)",
                si=si,
                expected=expected,
            )
        elif not isinstance(priority, (int, float)) or priority <= 0:
            self._flag(
                index, "TRC012",
                f"forecast for SI {si!r} carries priority {priority!r} "
                "(need a positive number)",
                si=si,
                priority=priority,
            )

    def _on_forecast_end(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        self._require_si(index, si)

    def _on_reallocation(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        self._container(index, "TRC003", "reallocation names", detail.get("container"))

    def _on_rotation_requested(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        atom = detail.get("atom", detail.get("detail_atom"))
        container_id = detail.get("container")
        starts = detail.get("starts")
        finishes = detail.get("finishes")
        self._accounting.rotations_requested += 1
        if not isinstance(atom, str) or atom not in self._reconfigurable:
            self._flag(
                index, "TRC009",
                f"rotation requests atom {atom!r}, which is not a "
                "reconfigurable kind of this library",
                atom=atom,
            )
            return
        if self.energy_model is not None:
            self._accounting.rotation_energy_nj += (
                self.library.catalogue.get(atom).bitstream_bytes
                * self.energy_model.rotation_nj_per_byte
            )
        cont = self._container(
            index, "TRC003", f"rotation of {atom!r} targets", container_id
        )
        if cont is None:
            return
        repair = bool(detail.get("repair"))
        if cont.failed:
            self._flag(
                index, "TRC003",
                f"rotation of {atom!r} targets failed container {container_id}",
                container=container_id,
            )
            return
        if cont.quarantined and not repair:
            self._flag(
                index, "TRC015",
                f"rotation of {atom!r} targets quarantined container "
                f"{container_id} without being a repair",
                container=container_id,
                atom=atom,
            )
            return
        if any(j.container_id == container_id for j in self._pending):
            self._flag(
                index, "TRC004",
                f"container {container_id} already has a rotation scheduled "
                f"or in flight when {atom!r} is requested at cycle {cycle}",
                container=container_id,
                atom=atom,
            )
            return
        if not isinstance(starts, int) or not isinstance(finishes, int):
            self._flag(
                index, "TRC008",
                f"rotation of {atom!r} carries malformed timing "
                f"starts={starts!r} finishes={finishes!r}",
                starts=starts,
                finishes=finishes,
            )
            return
        evicts = detail.get("evicts")
        port_starts = max(cycle, self._busy_until)
        write_cycles = self._port_model.rotation_cycles(atom)
        if evicts != cont.atom:
            self._flag(
                index, "TRC004",
                f"rotation into container {container_id} claims to evict "
                f"{evicts!r} but the container holds {cont.atom!r}",
                container=container_id,
                claimed=evicts,
                actual=cont.atom,
            )
        elif starts < self._busy_until:
            self._flag(
                index, "TRC002",
                f"rotation of {atom!r} starts at cycle {starts} while the "
                f"port is busy until cycle {self._busy_until}",
                starts=starts,
                busy_until=self._busy_until,
            )
        elif starts != port_starts:
            self._flag(
                index, "TRC008",
                f"rotation of {atom!r} starts at cycle {starts}; the serial "
                f"port model starts it at {port_starts}",
                starts=starts,
                expected=port_starts,
            )
        elif finishes - starts != write_cycles:
            self._flag(
                index, "TRC008",
                f"rotation of {atom!r} takes {finishes - starts} cycles; "
                f"its bitstream needs {write_cycles}",
                duration=finishes - starts,
                expected=write_cycles,
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

    def _on_rotation_completed(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        atom = detail.get("atom", detail.get("detail_atom"))
        container_id = detail.get("container")
        for i, job in enumerate(self._unreported):
            if (
                job.container_id == container_id
                and job.atom == atom
                and job.finish_at == cycle
            ):
                del self._unreported[i]
                return
        self._flag(
            index, "TRC004",
            f"completion of {atom!r} in container {container_id!r} at cycle "
            f"{cycle} matches no replayed rotation",
            atom=atom,
            container=container_id,
        )

    def _on_mode_switch(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        if not self._require_si(index, si):
            return
        from_mode = detail.get("from_mode")
        to_mode = detail.get("to_mode")
        key = (task, si)
        self._accounting.mode_switches += 1
        known = self._last_mode.get(key)
        if from_mode == to_mode or not isinstance(to_mode, str):
            self._flag(
                index, "TRC011",
                f"mode switch of SI {si!r} from {from_mode!r} to "
                f"{to_mode!r} is not a switch",
                si=si,
            )
            return
        if known is not None and from_mode != known:
            self._flag(
                index, "TRC011",
                f"mode switch of SI {si!r} claims previous mode "
                f"{from_mode!r} but the replayed mode is {known!r}",
                si=si,
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

    def _on_si_executed(
        self, index: int, cycle: int, task: str, si_name: str, detail: Detail
    ) -> None:
        if not self._require_si(index, si_name):
            return
        mode = detail.get("mode")
        cycles = detail.get("cycles")
        if not isinstance(mode, str) or not isinstance(cycles, int):
            self._flag(
                index, "TRC006",
                f"SI {si_name!r} execution carries malformed detail "
                f"mode={mode!r} cycles={cycles!r}",
                mode=mode,
                cycles=cycles,
            )
            return
        si = self.library.get(si_name)
        consistent = self._check_execution(index, si, mode, cycles)
        if consistent:
            # An inconsistent execution is noise, not a mode change: the
            # replayed mode state keeps following the coherent events.
            self._confirm_mode(index, cycle, task, si_name, mode, cycles)
        accounting = self._accounting
        accounting.si_executions += 1
        accounting.si_cycles += cycles
        if mode == "SW":
            accounting.sw_executions += 1
        else:
            accounting.hw_executions += 1
        if self.energy_model is not None and consistent:
            impl = None if mode == "SW" else self.best_available(si)
            slices = 0 if impl is None else self._slices[id(impl)]
            accounting.execution_energy_nj += (
                self.energy_model.execution_energy_nj(slices, cycles)
            )

    def _check_execution(
        self, index: int, si: SpecialInstruction, mode: str, cycles: int
    ) -> bool:
        """The §3.1 residency and §5 best-available rules for one execution."""
        if mode == "SW":
            if cycles != si.software_cycles:
                self._flag(
                    index, "TRC006",
                    f"SI {si.name!r} ran in SW mode for {cycles} cycles; its "
                    f"software molecule takes {si.software_cycles}",
                    cycles=cycles,
                    expected=si.software_cycles,
                )
                return False
        else:
            claim = (si.name, mode, cycles)
            candidates = self._candidates.get(claim)
            if candidates is None:
                self._flag(
                    index, "TRC006",
                    f"SI {si.name!r} claims mode {mode!r} at {cycles} cycles; "
                    "no molecule of the library matches",
                    mode=mode,
                    cycles=cycles,
                )
                return False
            available = self.available_molecule()
            resident = self._best_here.get(claim)
            if resident is None:
                # The best molecule fits by definition; any other claim
                # compares its molecules with the fabric, once per state.
                resident = self._best_here[claim] = (
                    self.best_available(si) in candidates
                    or any(impl.molecule <= available for impl in candidates)
                )
            if not resident:
                missing = (candidates[0].molecule - available).as_dict()
                self._flag(
                    index, "TRC005",
                    f"SI {si.name!r} executed its {cycles}-cycle molecule "
                    f"but the fabric lacks {missing} (residual o ∸ m "
                    "is non-zero)",
                    missing=missing,
                    mode=mode,
                )
                return False
        best = self.best_available(si)
        expected = si.software_cycles if best is None else best.cycles
        if cycles != expected:
            self._flag(
                index, "TRC013",
                f"SI {si.name!r} ran for {cycles} cycles but the best "
                f"available molecule takes {expected} (gradual upgrade "
                "must always use the fastest resident molecule)",
                cycles=cycles,
                expected=expected,
            )
            return False
        return True

    def _confirm_mode(
        self, index: int, cycle: int, task: str, si: str, mode: str, cycles: int
    ) -> None:
        key = (task, si)
        known = self._last_mode.get(key)
        pending = self._pending_switch.pop(key, None)
        if known is not None and mode != known:
            if (
                pending is None
                or pending.cycle != cycle
                or pending.to_mode != mode
                or pending.cycles != cycles
            ):
                self._flag(
                    index, "TRC011",
                    f"SI {si!r} changed mode {known!r} -> {mode!r} at "
                    f"cycle {cycle} without a matching mode-switch event",
                    si=si,
                    previous=known,
                    mode=mode,
                )
        elif pending is not None:
            self._flag(
                index, "TRC011",
                f"mode switch of SI {si!r} to {pending.to_mode!r} was "
                f"recorded but the execution at cycle {cycle} stayed in "
                f"mode {mode!r}",
                si=si,
                mode=mode,
            )
        self._last_mode[key] = mode

    def _on_container_failed(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        container_id = detail.get("container")
        cont = self._container(index, "TRC003", "failure event names", container_id)
        if cont is None:
            return
        lost = detail.get("lost_atom")
        expected_lost = cont.loading if cont.loading is not None else cont.atom
        if lost != expected_lost:
            self._flag(
                index, "TRC004",
                f"container {container_id} failed losing {lost!r} but the "
                f"replayed state holds {expected_lost!r}",
                container=container_id,
                claimed=lost,
                actual=expected_lost,
            )
        self._containers[cont.container_id] = _ContainerState(cont.container_id, failed=True)
        # Retirement resolves an open quarantine (repair became moot).
        self._open_quarantines.pop(container_id, None)
        self._available = None
        # Mirror of ``ReconfigurationPort._drop_failed``: jobs targeting
        # the dead container vanish and unstarted jobs close the port gap.
        kept = [j for j in self._pending if j.container_id != container_id]
        if len(kept) != len(self._pending):
            self._pending = kept
            self._resequence(cycle)

    def _resequence(self, now: int) -> None:
        """Mirror of ``ReconfigurationPort._resequence``: unstarted jobs
        close the port gap left by dropped or aborted writes."""
        cursor = now
        for job in sorted(self._pending, key=lambda j: j.started_at):
            if job.started:
                cursor = max(cursor, job.finish_at)
                continue
            duration = job.finish_at - job.started_at
            job.started_at = max(cursor, job.requested_at)
            job.finish_at = job.started_at + duration
            cursor = job.finish_at
        self._busy_until = cursor
        self._advance_to(self._clock)

    # -- fault events -------------------------------------------------------

    def _on_fault_injected(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        effect = detail.get("effect")
        if effect == "none":
            return
        container_id = detail.get("container")
        cont = self._container(index, "TRC014", "fault injection names", container_id)
        if cont is None:
            return
        if effect == "corrupted":
            if (
                cont.atom is None
                or cont.failed
                or cont.quarantined
                or cont.corrupted
            ):
                self._flag(
                    index, "TRC014",
                    f"transient fault claims to corrupt container "
                    f"{container_id}, which holds no healthy loaded atom",
                    container=container_id,
                )
                return
            self._check_claimed_atom(
                index, cont, detail, f"transient fault in container {container_id}"
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
                or not job.started_at <= cycle < job.finish_at
            ):
                self._flag(
                    index, "TRC014",
                    f"write abort on container {container_id} at cycle "
                    f"{cycle} matches no bitstream write in flight",
                    container=container_id,
                )
                return
            self._pending.remove(job)
            cont.loading = None
            self._available = None
            self._resequence(cycle)
        elif effect != "failed":
            # (A "failed" injection is informational: the CONTAINER_FAILED
            # event that follows performs the state change.)
            self._flag(
                index, "TRC014",
                f"fault injection carries unknown effect {effect!r}",
                effect=effect,
            )

    def _on_fault_detected(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        container_id = detail.get("container")
        cont = self._container(index, "TRC014", "fault detection names", container_id)
        if cont is None:
            return
        if not cont.corrupted:
            self._flag(
                index, "TRC014",
                f"scrubber reports a fault in container {container_id} at "
                f"cycle {cycle}, but no silent corruption is open there",
                container=container_id,
            )
            return
        self._check_claimed_atom(
            index, cont, detail, f"fault detection in container {container_id}"
        )
        cont.detected = True

    def _on_container_quarantined(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        container_id = detail.get("container")
        cont = self._container(index, "TRC014", "quarantine names", container_id)
        if cont is None:
            return
        if not cont.detected:
            self._flag(
                index, "TRC014",
                f"container {container_id} is quarantined at cycle {cycle} "
                "without a preceding fault detection",
                container=container_id,
            )
        atom = detail.get("atom")
        if cont.detected and atom != cont.atom:
            self._flag(
                index, "TRC014",
                f"quarantine of container {container_id} claims to drop atom "
                f"{atom!r} but the replayed state holds {cont.atom!r}",
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
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        container_id = detail.get("container")
        cont = self._container(index, "TRC014", "repair names", container_id)
        if cont is None:
            return
        if not cont.quarantined:
            self._flag(
                index, "TRC014",
                f"container {container_id} is reported repaired at cycle "
                f"{cycle} but was not quarantined",
                container=container_id,
            )
            return
        if cont.atom is None:
            self._flag(
                index, "TRC014",
                f"container {container_id} is reported repaired at cycle "
                f"{cycle} but no repair rotation has completed there",
                container=container_id,
            )
        cont.quarantined = False
        self._open_quarantines.pop(container_id, None)
        self._available = None

    def _on_rotation_retried(
        self, index: int, cycle: int, task: str, si: str, detail: Detail
    ) -> None:
        attempt = detail.get("attempt")
        retry_at = detail.get("retry_at")
        if self._container(
            index, "TRC014", "rotation retry names", detail.get("container")
        ) is None:
            return
        if not isinstance(attempt, int) or attempt < 1:
            self._flag(
                index, "TRC014",
                f"rotation retry carries malformed attempt {attempt!r}",
                attempt=attempt,
            )
        elif not isinstance(retry_at, int) or retry_at <= cycle:
            self._flag(
                index, "TRC014",
                f"rotation retry at cycle {cycle} is due at {retry_at!r}; "
                "backoff must land strictly in the future",
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
        expected = self.accounting()
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

    def _container(
        self, index: int, rule_id: str, what: str, container_id: object
    ) -> _ContainerState | None:
        """The replayed container an event names, or ``None`` after a
        ``rule_id`` finding "``what`` container N (platform has M)"."""
        if isinstance(container_id, int) and 0 <= container_id < len(self._containers):
            return self._containers[container_id]
        self._flag(
            index,
            rule_id,
            f"{what} container {container_id!r} "
            f"(platform has {len(self._containers)})",
            container=container_id,
        )
        return None

    def _check_claimed_atom(
        self, index: int, cont: _ContainerState, detail: Detail, what: str
    ) -> None:
        """TRC014 when a fault event names another atom than the replay."""
        atom = detail.get("atom")
        if atom != cont.atom:
            self._flag(
                index, "TRC014",
                f"{what} claims atom {atom!r} but the replayed state holds "
                f"{cont.atom!r}",
                container=detail.get("container"),
                claimed=atom,
                actual=cont.atom,
            )

    def _require_si(self, index: int, si_name: str) -> bool:
        if si_name in self.library:
            return True
        self._flag(
            index, "TRC010",
            f"event references SI {si_name!r}, which the library does not "
            "define",
            si=si_name,
        )
        return False

    def _flag(self, index: int, rule_id: str, message: str, **context: object) -> None:
        """A finding located at event ``index``."""
        self._emit(rule_id, message, location=f"event {index}", **context)

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


#: The handler of each event kind; kinds without one only move the clock.
_HANDLERS: dict[EventKind, Callable[..., None]] = {
    EventKind.FORECAST: ReferenceMachine._on_forecast,
    EventKind.FORECAST_END: ReferenceMachine._on_forecast_end,
    EventKind.REALLOCATION: ReferenceMachine._on_reallocation,
    EventKind.ROTATION_REQUESTED: ReferenceMachine._on_rotation_requested,
    EventKind.ROTATION_COMPLETED: ReferenceMachine._on_rotation_completed,
    EventKind.SI_MODE_SWITCH: ReferenceMachine._on_mode_switch,
    EventKind.SI_EXECUTED: ReferenceMachine._on_si_executed,
    EventKind.CONTAINER_FAILED: ReferenceMachine._on_container_failed,
    EventKind.FAULT_INJECTED: ReferenceMachine._on_fault_injected,
    EventKind.FAULT_DETECTED: ReferenceMachine._on_fault_detected,
    EventKind.CONTAINER_QUARANTINED: ReferenceMachine._on_container_quarantined,
    EventKind.CONTAINER_REPAIRED: ReferenceMachine._on_container_repaired,
    EventKind.ROTATION_RETRIED: ReferenceMachine._on_rotation_retried,
}
