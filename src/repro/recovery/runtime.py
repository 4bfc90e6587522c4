"""The recoverable runtime: journaled commands + periodic snapshots.

:class:`RecoverableRuntime` wraps a :class:`~repro.runtime.manager.RisppRuntime`
and intercepts its command surface: the five runtime inputs of
:mod:`repro.commands` (``forecast`` / ``forecast_end`` / ``execute_si``
/ ``advance`` / ``fail_container``) plus journaled state *queries*.
Each command is appended to the write-ahead journal and flushed before
it is applied; every ``checkpoint_every`` commands the whole world is
snapshotted.  Killing the process at any command boundary —
:class:`SimulatedCrash` simulates exactly that, deliberately *before*
the journal append so the interrupted command is re-issued on resume —
loses nothing.

Resume has three phases.  First the newest usable snapshot is restored
onto a freshly rebuilt scenario.  Second, journal records past the
snapshot are *replayed*: re-applied live, which recomputes their results
deterministically.  Third, *handoff*: the driver re-runs the scenario
from the top, and the wrapper verifies each re-issued command against
the corresponding journal record (op, cycle and args must match — a
divergent driver raises :exc:`RecoveryError`), answering from the
recorded results without touching the runtime.  When the journal is
exhausted the wrapper switches to live mode and the run continues
exactly where the crash cut it off.

State queries must flow through :func:`repro.commands.query` rather than direct
attribute reads: during handoff the underlying runtime already holds the
*post-replay* state, while the driver is still logically at an earlier
point — a direct read would see the future.  Journaling the query makes
it return the original run's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..commands import (
    QUERIES,
    Advance,
    Command,
    Execute,
    FailContainer,
    Forecast,
    ForecastEnd,
    apply,
)
from .journal import (
    JOURNAL_NAME,
    JournalRecord,
    JournalWriter,
    Query,
    RecoveryError,
    read_journal,
)
from .snapshot import (
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    restore_runtime,
    snapshot_runtime,
    write_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.manager import RisppRuntime

class SimulatedCrash(RuntimeError):
    """Seeded crash injection fired (``--crash-at``): the process "died".

    Raised *before* the triggering command reaches the journal, exactly
    like a kill between two commands; the recovery store on disk is a
    valid resume point.
    """

    def __init__(self, *, cycle: int, seq: int, store: Path):
        self.cycle = cycle
        self.seq = seq
        self.store = store
        super().__init__(
            f"simulated crash at cycle {cycle} (journal seq {seq}); "
            f"resume from {store}"
        )


@dataclass(frozen=True)
class RecoveryPlan:
    """How a driver should attach recovery to the runtime it builds.

    Passed through ``run_chaos_suite(recovery=...)`` and the ``wrap=``
    hook of :func:`repro.sim.suites.run_si_stream`; :meth:`wrap` is the
    hook's callable.
    """

    store: Path
    checkpoint_every: int = 64
    crash_at: int | None = None
    resume: bool = False

    def wrap(self, runtime: "RisppRuntime") -> "RecoverableRuntime":
        return RecoverableRuntime(
            runtime,
            self.store,
            checkpoint_every=self.checkpoint_every,
            crash_at=self.crash_at,
            resume=self.resume,
        )


class RecoverableRuntime:
    """Journal + checkpoint wrapper around one :class:`RisppRuntime`.

    Reads delegate to the wrapped runtime; the command surface is
    intercepted (see the module docstring for the crash/resume
    protocol).  The wrapped runtime must be freshly built by the same
    deterministic driver in both the original and the resumed process.
    """

    def __init__(
        self,
        runtime: "RisppRuntime",
        store: Path,
        *,
        checkpoint_every: int = 64,
        crash_at: int | None = None,
        resume: bool = False,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._rt = runtime
        self._store = Path(store)
        self._checkpoint_every = checkpoint_every
        self._crash_at = crash_at
        self._results: list[Any] = []
        self._handoff: list[JournalRecord] = []
        self._handoff_idx = 0
        self._last_cycle = 0
        self.snapshots_taken = 0
        self.replayed_records = 0
        self.resumed = resume
        metrics = runtime.metrics
        self._m_snap_bytes = metrics.histogram("recovery_snapshot_bytes")
        self._m_snap_time = metrics.histogram(
            "recovery_snapshot_duration_seconds"
        )
        self._m_journal = metrics.counter("recovery_journal_records_total")
        self._m_replayed = metrics.counter("recovery_journal_replay_total")
        self._m_resumes = metrics.counter("recovery_resumes_total")
        journal_path = self._store / JOURNAL_NAME
        if resume:
            read = read_journal(journal_path)
            records = read.records
            base_seq = 0
            latest = latest_snapshot(self._store, max_seq=len(records))
            if latest is not None:
                _seq, path = latest
                snap = load_snapshot(path)
                restore_runtime(runtime, snap)
                self._results = list(snap["results"])
                base_seq = int(snap["seq"])
            for record in records[base_seq:]:
                self._results.append(self._apply(record))
                self.replayed_records += 1
            if self.replayed_records:
                self._m_replayed.inc(self.replayed_records)
            self._m_resumes.inc()
            # Handoff re-tracks driver-visible cycles from the top, so
            # the very first journaled query matches its original cycle.
            self._last_cycle = 0
            self._handoff = records
            self._journal = JournalWriter(
                journal_path,
                start_seq=len(records),
                truncate_to=read.valid_bytes if read.discarded_tail else None,
            )
        else:
            self._store.mkdir(parents=True, exist_ok=True)
            if journal_path.exists():
                journal_path.unlink()
            for _seq, path in list_snapshots(self._store):
                path.unlink()
            self._journal = JournalWriter(journal_path)

    # -- delegation -------------------------------------------------------

    @property
    def runtime(self) -> "RisppRuntime":
        """The wrapped runtime (state reads for reporting/verification)."""
        return self._rt

    @property
    def store(self) -> Path:
        return self._store

    @property
    def journal_records(self) -> int:
        """Total journaled commands (replayed + handed off + live)."""
        return self._journal.next_seq - 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_rt"], name)

    # -- command surface --------------------------------------------------
    # The runtime's five input methods, each journaled.  They must all be
    # defined here: ``__getattr__`` would hand a missing one to the
    # wrapped runtime unjournaled.

    def forecast(
        self,
        si_name: str,
        now: int,
        *,
        task: str = "main",
        expected: float | None = None,
        priority: float = 1.0,
    ) -> None:
        self._command(Forecast(si_name, task, expected, priority), now)

    def forecast_end(
        self, si_name: str, now: int, *, task: str = "main"
    ) -> None:
        self._command(ForecastEnd(si_name, task), now)

    def execute_si(self, si_name: str, now: int, *, task: str = "main") -> int:
        return int(self._command(Execute(si_name, task), now))

    def advance(self, now: int) -> None:
        self._command(Advance(), now)

    def fail_container(self, container_id: int, now: int) -> None:
        self._command(FailContainer(container_id), now)

    def query(self, name: str) -> Any:
        return self._command(Query(name), self._last_cycle)

    def close(self) -> None:
        self._journal.close()

    # -- protocol ---------------------------------------------------------

    def _command(self, command: Command | Query, cycle: int) -> Any:
        if self._handoff_idx < len(self._handoff):
            record = self._handoff[self._handoff_idx]
            if (record.cycle, record.command) != (cycle, command):
                raise RecoveryError(
                    f"resumed run diverged from the journal at seq "
                    f"{record.seq}: journaled {record.command!r} at cycle "
                    f"{record.cycle}, the driver issued {command!r} at "
                    f"cycle {cycle}"
                )
            self._handoff_idx += 1
            self._last_cycle = cycle
            return self._results[record.seq - 1]
        if self._crash_at is not None and cycle >= self._crash_at:
            raise SimulatedCrash(
                cycle=cycle, seq=self._journal.next_seq, store=self._store
            )
        record = self._journal.append(cycle, command)
        self._m_journal.inc()
        result = self._apply(record)
        self._results.append(result)
        self._last_cycle = cycle
        if record.seq % self._checkpoint_every == 0:
            self._checkpoint(record.seq)
        return result

    def _apply(self, record: JournalRecord) -> Any:
        if isinstance(record.command, Query):
            return QUERIES[record.command.name](self._rt)
        return apply(self._rt, record.command, record.cycle)

    def _checkpoint(self, seq: int) -> None:
        with self._m_snap_time.time():
            snap = snapshot_runtime(
                self._rt, seq=seq, cycle=self._last_cycle, results=self._results
            )
            path = write_snapshot(self._store, snap)
        self._m_snap_bytes.observe(path.stat().st_size)
        self.snapshots_taken += 1
