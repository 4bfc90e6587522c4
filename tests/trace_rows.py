"""Editable trace rows: the reference machine's input, for planted defects.

The reference machine replays ``(cycle, kind, task, si, detail)`` rows,
the shape :meth:`repro.sim.trace.Trace.rows` yields and a golden-trace
file holds.  A test plants a defect by editing a copy of those rows:
``rows[i].detail["cycles"] = 7``, ``rows[i] = rows[i]._replace(si="X")``,
``del rows[i]`` or ``rows.insert(i, Row(...))``.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from repro.sim import EventKind


class Row(NamedTuple):
    cycle: int
    kind: EventKind
    task: str
    si: str
    detail: dict


def editable_rows(rows: Iterable[tuple]) -> list[Row]:
    """Copies of ``rows`` (a trace's ``rows()`` or earlier copies), each
    with its own detail dict, so an edit never reaches the source."""
    return [Row(cycle, kind, task, si, dict(detail)) for cycle, kind, task, si, detail in rows]
