"""Trace comparison for the regression tests and the ``perf/`` benchmark."""

from __future__ import annotations

from ..sim.trace import Trace


def trace_signature(trace: Trace) -> list[tuple]:
    """A trace as comparable tuples (cycle, kind, task, si, detail).

    Each detail is read out as a plain dict, whether the trace stores it
    in a shared shape, as the event's own dict or as a lazy factory, so
    two runtimes are equivalent iff their signatures are equal — the
    regression tests and the ``perf/`` workloads use this to prove the
    hot-path caches never change event semantics.
    """
    return [
        (e.cycle, e.kind.value, e.task, e.si, dict(e.detail))
        for e in trace
    ]
