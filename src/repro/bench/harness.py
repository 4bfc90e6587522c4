"""Trace comparison for the regression tests and the ``perf/`` benchmark."""

from __future__ import annotations

from ..sim.trace import Trace


def trace_signature(trace: Trace) -> list[tuple]:
    """A trace as comparable tuples (cycle, kind, task, si, detail).

    Each detail is read out as a plain dict, whether the trace stores it
    in a shared shape, as the event's own dict or as a lazy factory, so
    two runtimes are equivalent iff their signatures are equal — the
    regression tests and the ``perf/`` workloads use this to prove the
    hot-path caches never change event semantics.  It reads
    :meth:`Trace.rows`, so a signature costs one tuple and one fresh
    dict per event and builds no :class:`~repro.sim.trace.Event`; sign
    part of a trace by slicing it (``trace[a:b]`` is a :class:`Trace`).
    """
    return [
        (cycle, kind.value, task, si, detail)
        for cycle, kind, task, si, detail in trace.rows()
    ]
