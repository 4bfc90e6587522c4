"""Event trace: the machine-readable form of the Fig. 6 timeline.

Every interesting run-time event — forecasts, container reallocations,
rotation starts/completions, SI executions and their SW/HW mode switches
— is recorded into a :class:`Trace`.  Benches and tests assert directly
on the event sequence; :meth:`Trace.render_timeline` prints the
human-readable scenario view.

The trace enforces its contract at append time: event cycles are
non-negative and non-decreasing.  Concurrent tasks interleave through one
shared clock (the multi-task simulator always steps the least-advanced
task), so a cycle smaller than the previous event's is a scheduling bug
upstream, not a legal relaxation — :meth:`Trace.record` raises rather
than silently distorting the timeline benches measure.

The trace is stored *column-wise*.  A run-time manager records one
``SI_EXECUTED`` event per SI execution, and nearly all of them take one
of a handful of ``(kind, task, si, detail)`` shapes, so an append stores
only the event's cycle in one typed array and the id of its interned
shape in another: 12 bytes per event.  The intern key holds each detail
value's exact type, so ``1``, ``True`` and ``1.0`` never merge, and
floats by their exact bits, so ``0.0`` and ``-0.0`` never merge either
while equal-bit NaNs (which compare unequal) share one entry.  A detail
holding anything but ``str``/``int``/``bool``/``float``/``None`` values
(containers, unhashable objects), or the factory given to
:meth:`Trace.record_lazy`, is kept apart for its one event.

Reading one event (indexing, iteration, the queries) builds an
:class:`Event` on demand.  An event read from a trace is detached from
it: editing its detail changes that :class:`Event` object only, never the
trace or a later read of the same event.  Whole-trace readers read
columns instead: a slice of a trace is a :class:`Trace` (column slices,
no :class:`Event`), :meth:`Trace.rows` yields plain tuples, and
:meth:`Trace.tally` counts the events of each shape.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from struct import Struct
from typing import Any, Callable, overload


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


#: Value types a detail may share a shape with an equal one by.  Exact
#: types only: the intern key carries each value's type, so ``x=1``,
#: ``x=True`` and ``x=1.0`` never merge.  Two equal floats have equal bits
#: unless they are zeros (``0.0 == -0.0``) or NaNs (unequal even to
#: themselves); only a detail holding one of those is keyed on its
#: floats' bits (:func:`_float_bits`).
_SHAREABLE = frozenset({str, int, bool, float, type(None)})

#: Each kind by its value: a shape entry names its kind by the value,
#: which hashes from its cache (an enum member hashes in Python).
_KINDS = {kind._value_: kind for kind in EventKind}

_pack_double = Struct("<d").pack


def _float_bits(items: tuple) -> tuple:
    """``items`` with each float replaced by its IEEE-754 bytes: ``0.0``
    and ``-0.0`` differ there, and a NaN equals itself."""
    return tuple(
        (name, _pack_double(value) if value.__class__ is float else value)
        for name, value in items
    )


class Event:
    """One timestamped run-time event.

    ``detail`` may be given as a dict, as a tuple of its items or as a
    zero-argument factory; the last two become the event's own dict the
    first time :attr:`detail` is read, so an edit of that dict sticks to
    this event.
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
        if isinstance(d, tuple):
            d = self._detail = dict(d)
        elif callable(d):
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


class Trace(Sequence[Event]):
    """An append-only, time-ordered event log, stored column-wise.

    Appends must carry non-negative, non-decreasing cycles; equal cycles
    are fine (many events legitimately share one cycle — a forecast and
    the rotations it requests, a mode switch and the execution it
    annotates).

    Event ``i`` is ``_cycles[i]`` plus the ``(kind value, task, si,
    items, types)`` entry ``_shapes[i]`` of ``_table``; ``_ids`` maps each
    intern key to its entry's index.  An entry is its own intern key
    unless its floats need their bits, and its ``types`` tuple is shared
    with every entry alike through ``_types``, so a shape recorded once
    (a drifting forecast) costs little more than an own dict.  ``items``
    and ``types`` are ``None`` when the event's detail is kept in
    ``_own[i]`` instead: a dict, or a factory until it is first read.
    Entries never change, so copies and slices of a trace share them.
    """

    def __init__(self) -> None:
        self._cycles = array("q")
        self._shapes = array("I")
        self._own: dict[int, dict | Callable[[], dict]] = {}
        self._table: list[tuple[str, str, str, tuple | None, tuple | None]] = []
        self._ids: dict[tuple, int] = {}
        self._types: dict[tuple, tuple] = {}
        self._last_cycle = 0

    def __copy__(self) -> "Trace":
        """A trace with its own columns and ``_own`` (the table is shared)."""
        twin = object.__new__(type(self))
        twin.__dict__ = {
            **self.__dict__,
            "_cycles": self._cycles[:],
            "_shapes": self._shapes[:],
            "_own": dict(self._own),
        }
        return twin

    def record(
        self,
        cycle: int,
        kind: EventKind,
        *,
        task: str = "",
        si: str = "",
        **detail: Any,
    ) -> None:
        self._add(cycle, kind, task, si, detail)

    def record_lazy(
        self,
        cycle: int,
        kind: EventKind,
        detail_factory: Callable[[], dict],
        *,
        task: str = "",
        si: str = "",
    ) -> None:
        """Like :meth:`record`, but the detail dict is built on first read."""
        self._add(cycle, kind, task, si, detail_factory)

    def load(
        self, rows: Iterable[tuple[int, EventKind, str, str, dict]], last_cycle: int
    ) -> None:
        """Replace every event with ``rows`` of ``(cycle, kind, task, si,
        detail)``, interned as :meth:`record` interns them, so a restored
        trace is stored as compactly as a recorded one."""
        self._cycles, self._shapes, self._own = array("q"), array("I"), {}
        self._last_cycle = 0
        for row in rows:
            self._add(*row)
        self._last_cycle = last_cycle

    def rows(self) -> Iterator[tuple[int, EventKind, str, str, dict]]:
        """Every event as a ``(cycle, kind, task, si, detail)`` row, its
        detail a fresh dict: :meth:`load`'s input, read without building
        :class:`Event` objects (snapshot capture reads the whole trace)."""
        table, own_detail = self._table, self._own_detail
        for index, (cycle, shape) in enumerate(zip(self._cycles, self._shapes)):
            kind, task, si, items, _types = table[shape]
            yield (
                cycle,
                _KINDS[kind],
                task,
                si,
                own_detail(index) if items is None else dict(items),
            )

    def tally(self, start: int = 0) -> Iterator[tuple[EventKind, tuple, int]]:
        """``(kind, detail items, count)`` of the events from ``start`` on:
        one row per shape, counted in one pass over the shape column, and
        one per own-detail event.  Builds no :class:`Event`."""
        table = self._table
        for shape, count in Counter(self._shapes[start:]).items():
            kind, _task, _si, items, _types = table[shape]
            if items is not None:
                yield _KINDS[kind], items, count
        for index in self._own:
            if index >= start:
                kind = table[self._shapes[index]][0]
                yield _KINDS[kind], tuple(self._own_detail(index).items()), 1

    def _add(self, cycle: int, kind: EventKind, task: str, si: str, detail: Any) -> None:
        if cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if cycle < self._last_cycle:
            raise ValueError(
                f"out-of-order event: cycle {cycle} after {self._last_cycle} "
                f"({kind.value})"
            )
        kind_value = kind._value_
        items: tuple | None
        if detail.__class__ is dict and _SHAREABLE.issuperset(
            types := tuple(map(type, detail.values()))
        ):
            items = tuple(detail.items())
            key = (kind_value, task, si, items, types)
            if float in types and any(
                v == 0.0 or v != v for v in detail.values() if v.__class__ is float
            ):
                key = (kind_value, task, si, _float_bits(items), types)
        else:
            key, items = (kind_value, task, si, None, None), None
            self._own[len(self._cycles)] = (
                dict(detail) if detail.__class__ is dict else detail
            )
        shape = self._ids.get(key)
        if shape is None:
            shape = self._new_shape(key, items)
        self._cycles.append(cycle)
        self._shapes.append(shape)
        self._last_cycle = cycle

    def _new_shape(self, key: tuple, items: tuple | None) -> int:
        """Append the entry of a shape first seen under ``key``: the key
        itself unless the key holds float bits in place of ``items``, its
        ``types`` shared with every entry alike through ``_types``."""
        kind, task, si, _items, types = key
        if types is not None:
            types = self._types.setdefault(types, types)
        entry = (kind, task, si, items, types)
        self._ids[entry if key[3] is items else key] = shape = len(self._table)
        self._table.append(entry)
        return shape

    def _event(self, index: int) -> Event:
        kind, task, si, items, _types = self._table[self._shapes[index]]
        return Event(
            self._cycles[index],
            _KINDS[kind],
            task,
            si,
            partial(self._own_detail, index) if items is None else items,
        )

    def _own_detail(self, index: int) -> dict:
        """A copy of event ``index``'s own detail, its factory run once."""
        detail = self._own[index]
        if callable(detail):
            detail = self._own[index] = detail()
        return dict(detail)

    @property
    def events(self) -> Sequence[Event]:
        """The recorded events, read-only: the trace itself."""
        return self

    @property
    def last_cycle(self) -> int:
        """Cycle of the most recent event (0 when empty)."""
        return self._last_cycle

    def __len__(self) -> int:
        return len(self._cycles)

    @overload
    def __getitem__(self, index: int) -> Event: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: int | slice) -> "Event | Trace":
        """Event ``index``, or for a slice the :class:`Trace` of those
        events: column slices and their re-indexed own details, sharing
        this trace's shape table, so no :class:`Event` is built.  A slice
        keeps time order (its step must be positive); its
        :attr:`last_cycle` is its last event's cycle."""
        if not isinstance(index, slice):
            return self._event(range(len(self))[index])
        picked = range(*index.indices(len(self)))
        if picked.step < 0:
            raise ValueError("a trace slice keeps time order: step must be positive")
        part = object.__new__(type(self))
        cycles = self._cycles[index]
        part.__dict__ = {
            **self.__dict__,
            "_cycles": cycles,
            "_shapes": self._shapes[index],
            "_own": {
                picked.index(i): detail
                for i, detail in self._own.items()
                if i in picked
            },
            "_last_cycle": cycles[-1] if cycles else 0,
        }
        return part

    def __iter__(self) -> Iterator[Event]:
        return map(self._event, range(len(self)))

    def _where(self, match: Callable[[tuple], bool]) -> Iterator[int]:
        """Indices, in order, of the events whose shape ``match``es."""
        wanted = {shape for shape, entry in enumerate(self._table) if match(entry)}
        return (i for i, shape in enumerate(self._shapes) if shape in wanted)

    # The queries below match on the shape column only: they build just
    # the events they return, and never resolve a lazy detail.

    def of_kind(self, *kinds: EventKind) -> list[Event]:
        """The events of any of ``kinds``, in trace order."""
        values = {kind._value_ for kind in kinds}
        return list(map(self._event, self._where(lambda entry: entry[0] in values)))

    def first(self, kind: EventKind, **detail_filter: Any) -> Event | None:
        """Earliest event of ``kind`` whose detail matches the filter.

        Without a detail filter no detail is read, so no lazy factory is
        ever resolved; with one, only the details of same-kind events up
        to the first match are.
        """
        items = detail_filter.items()
        for index in self._where(lambda entry: entry[0] == kind._value_):
            event = self._event(index)
            if all(event.detail.get(k) == v for k, v in items):
                return event
        return None

    def render_timeline(self, *, max_events: int | None = None) -> str:
        """A readable cycle-ordered log (the Fig. 6 presentation)."""
        lines = []
        events = self if max_events is None else self[:max_events]
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
