"""Event trace: the machine-readable form of the Fig. 6 timeline.

Every interesting run-time event — forecasts, container reallocations,
rotation starts/completions, SI executions and their SW/HW mode switches
— is recorded as an :class:`Event`.  Benches and tests assert directly on
the event sequence; :meth:`Trace.render_timeline` prints the
human-readable scenario view.

The trace enforces its contract at append time: event cycles are
non-negative and non-decreasing.  Concurrent tasks interleave through one
shared clock (the multi-task simulator always steps the least-advanced
task), so a cycle smaller than the previous event's is a scheduling bug
upstream, not a legal relaxation — :meth:`Trace.record` raises rather
than silently distorting the timeline benches measure.

Event details are stored *compactly*: a run-time manager records one
``SI_EXECUTED`` event per SI execution, and nearly all of them carry one
of a handful of ``(mode, cycles)`` details.  :meth:`Trace.record` keeps
a detail as a tuple of its items, and equal tuples share one object
through a per-trace table (keyed on each value's exact type, so ``1``,
``True`` and ``1.0`` never merge).  Details holding anything but
``str``/``int``/``bool``/``None`` values — floats, containers,
unhashable objects — are kept as a plain dict, unshared.  Reading
:attr:`Event.detail` builds a fresh dict from the tuple; the first edit
of that dict (``[k]=``, ``del``, ``update``, ``pop``, ``popitem``,
``setdefault``, ``clear``, ``|=``) makes it that event's own detail, so
edits stick to the edited event and never reach the events it shared
storage with.  :meth:`Trace.record_lazy` still accepts a zero-argument
factory, resolved (once) on first access to :attr:`Event.detail`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventKind(enum.Enum):
    """Run-time event categories."""

    FORECAST = "forecast"
    FORECAST_END = "forecast_end"
    REALLOCATION = "reallocation"
    ROTATION_REQUESTED = "rotation_requested"
    ROTATION_STARTED = "rotation_started"
    ROTATION_COMPLETED = "rotation_completed"
    SI_EXECUTED = "si_executed"
    SI_MODE_SWITCH = "si_mode_switch"
    TASK_STEP = "task_step"
    CONTAINER_FAILED = "container_failed"
    FAULT_INJECTED = "fault_injected"
    FAULT_DETECTED = "fault_detected"
    CONTAINER_QUARANTINED = "container_quarantined"
    CONTAINER_REPAIRED = "container_repaired"
    ROTATION_RETRIED = "rotation_retried"


#: Value types whose equal values always print alike — a detail made of
#: these alone may share storage with an equal one.  Exact types only:
#: ``bool`` is listed apart from ``int`` and the table key carries each
#: value's type, so ``x=1`` and ``x=True`` never merge; floats are not
#: listed because ``0.0 == -0.0``.
_SHAREABLE = frozenset({str, int, bool, type(None)})


class _Detail(dict):
    """A dict read from a shared detail; its first edit makes it the
    event's own.

    A view read before another view of the same event was edited no
    longer belongs to the event: its edits stay private to it.
    """

    __slots__ = ("_event",)
    _event: Event | None

    def _own(self) -> None:
        event = self._event
        if event is not None:
            self._event = None
            if event._detail.__class__ is tuple:
                event._detail = self

    def __setitem__(self, key: str, value: Any) -> None:
        self._own()
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: str) -> None:
        self._own()
        dict.__delitem__(self, key)

    def __ior__(self, other: Any) -> "_Detail":
        self._own()
        dict.update(self, other)
        return self

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._own()
        dict.update(self, *args, **kwargs)

    def pop(self, *args: Any) -> Any:
        self._own()
        return dict.pop(self, *args)

    def popitem(self) -> tuple[str, Any]:
        self._own()
        return dict.popitem(self)

    def setdefault(self, key: str, default: Any = None) -> Any:
        self._own()
        return dict.setdefault(self, key, default)

    def clear(self) -> None:
        self._own()
        dict.clear(self)

    def __reduce__(self) -> tuple:
        # Copies and pickles are plain dicts, detached from the event.
        return (dict, (dict(self),))


class Event:
    """One timestamped run-time event.

    ``detail`` is stored as a tuple of items (possibly shared with other
    events of the same trace), as the event's own dict, or as a
    zero-argument factory that is resolved and cached the first time it
    is read.  Reading a tuple-stored detail returns a fresh dict each
    time; editing that dict makes it the event's own.
    """

    __slots__ = ("cycle", "kind", "task", "si", "_detail")

    def __init__(
        self,
        cycle: int,
        kind: EventKind,
        task: str = "",
        si: str = "",
        detail: dict | tuple | Callable[[], dict] | None = None,
    ):
        self.cycle = cycle
        self.kind = kind
        self.task = task
        self.si = si
        self._detail = () if detail is None else detail

    @property
    def detail(self) -> dict:
        d = self._detail
        if d.__class__ is tuple:
            view = _Detail(d)
            view._event = self
            return view
        if callable(d):
            d = self._detail = d()
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.cycle == other.cycle
            and self.kind == other.kind
            and self.task == other.task
            and self.si == other.si
            and self.detail == other.detail
        )

    # Events carry a mutable detail dict and were never hashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        bits = [f"@{self.cycle}", self.kind.value]
        if self.task:
            bits.append(f"task={self.task}")
        if self.si:
            bits.append(f"si={self.si}")
        if self.detail:
            bits.append(str(self.detail))
        return f"Event({', '.join(bits)})"


class Trace:
    """An append-only, time-ordered event log.

    Appends must carry non-negative, non-decreasing cycles; equal cycles
    are fine (many events legitimately share one cycle — a forecast and
    the rotations it requests, a mode switch and the execution it
    annotates).

    ``_shared`` maps each shareable detail (its items plus their exact
    types) to the one items tuple every equal detail stores.  Entries
    never change, so shallow copies of a trace may share the table.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._last_cycle = 0
        self._shared: dict[tuple, tuple] = {}

    def __copy__(self) -> "Trace":
        """A trace with its own event list (events and ``_shared`` are shared)."""
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "events": list(self.events)}
        return twin

    def record(
        self,
        cycle: int,
        kind: EventKind,
        *,
        task: str = "",
        si: str = "",
        **detail: Any,
    ) -> Event:
        return self._append(Event(cycle, kind, task, si, self.compact(detail)))

    def record_lazy(
        self,
        cycle: int,
        kind: EventKind,
        detail_factory: Callable[[], dict],
        *,
        task: str = "",
        si: str = "",
    ) -> Event:
        """Like :meth:`record`, but the detail dict is built on demand."""
        return self._append(Event(cycle, kind, task, si, detail_factory))

    def compact(self, detail: dict) -> tuple | dict:
        """The stored form of ``detail``: a shared items tuple, or a copy.

        A detail whose values are all of a :data:`_SHAREABLE` type is
        stored as the one items tuple this trace keeps for it; any other
        detail (floats, containers, unhashable values) as a plain dict.
        """
        types = tuple(map(type, detail.values()))
        if not _SHAREABLE.issuperset(types):
            return dict(detail)
        items = tuple(detail.items())
        return self._shared.setdefault((items, types), items)

    def _append(self, event: Event) -> Event:
        cycle = event.cycle
        if cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if cycle < self._last_cycle:
            raise ValueError(
                f"out-of-order event: cycle {cycle} after {self._last_cycle} "
                f"({event.kind.value})"
            )
        self._last_cycle = cycle
        self.events.append(event)
        return event

    @property
    def last_cycle(self) -> int:
        """Cycle of the most recent event (0 when empty)."""
        return self._last_cycle

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        # Matches on the slot attributes only — never touches (and thus
        # never materializes) a lazy ``Event.detail``.
        return [e for e in self.events if e.kind is kind]

    def for_task(self, task: str) -> list[Event]:
        return [e for e in self.events if e.task == task]

    def for_si(self, si: str) -> list[Event]:
        return [e for e in self.events if e.si == si]

    def first(self, kind: EventKind, **detail_filter) -> Event | None:
        """Earliest event of ``kind`` whose detail matches the filter.

        Without a detail filter the scan stays on the slot attributes,
        so no lazy detail factory is ever resolved; with one, only the
        details of same-kind events up to the first match materialize.
        """
        if not detail_filter:
            for e in self.events:
                if e.kind is kind:
                    return e
            return None
        items = tuple(detail_filter.items())
        for e in self.events:
            if e.kind is not kind:
                continue
            if all(e.detail.get(k) == v for k, v in items):
                return e
        return None

    def render_timeline(self, *, max_events: int | None = None) -> str:
        """A readable cycle-ordered log (the Fig. 6 presentation)."""
        lines = []
        events = self.events if max_events is None else self.events[:max_events]
        for e in events:
            parts = [f"{e.cycle:>10}", f"{e.kind.value:<20}"]
            if e.task:
                parts.append(f"{e.task:<8}")
            if e.si:
                parts.append(f"{e.si:<10}")
            if e.detail:
                parts.append(
                    " ".join(f"{k}={v}" for k, v in sorted(e.detail.items()))
                )
            lines.append(" ".join(parts))
        return "\n".join(lines)
