"""Outside-in layer tracer: per-layer call counts and self time.

:class:`LayerTracer` is a context manager that replaces each layer's
entry points with a timing wrapper *at the binding its caller looks up*,
and puts every original back on exit (restored by identity, so a traced
run leaves no trace in the process).  A stack of open spans turns
inclusive times into self times: a layer's self time is its span minus
the spans of the layers it called.  Time spent outside every wrapped
layer (the benchmark's own loop) is the caller's to compute as
``wall - sum(self times)``.

Two bindings are easy to miss and are the reason for the table's shape:

* ``select_greedy`` reaches the runtime as the default of
  ``RisppRuntime.__init__``'s ``selection`` keyword, so it is patched in
  ``__kwdefaults__`` rather than on :mod:`repro.core.selection`;
* helpers imported with ``from x import y`` are looked up in the
  *importing* module's globals (``repro.runtime.manager.plan_rotations``,
  ``repro.recovery.runtime.write_snapshot``, ...), so that is where they
  are wrapped.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable

#: ``(layer, owner, attributes)``: ``owner`` is ``module`` or
#: ``module:Class``; each attribute of it is wrapped as ``layer``.
BINDINGS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("runtime.manager", "repro.runtime.manager:RisppRuntime", (
        "execute_si", "forecast", "forecast_end", "advance",
        "fail_container", "_replan",
    )),
    ("runtime.events", "repro.runtime.events:EventBus", ("publish",)),
    ("runtime.monitor", "repro.runtime.monitor:ForecastMonitor", (
        "forecast_fired", "si_executed", "forecast_ended", "expectation",
    )),
    ("runtime.rotation", "repro.runtime.manager", (
        "plan_rotations", "future_population",
    )),
    ("core.backend", "repro.core.backend:ReferenceBackend", (
        "sup", "inf", "residual", "determinants", "pareto_mask",
        "greedy_choose", "exhaustive_choose",
    )),
    ("core.backend", "repro.core.backend:NumpyBackend", (
        "sup", "inf", "residual", "determinants", "pareto_mask",
        "greedy_choose", "exhaustive_choose",
    )),
    ("hardware.reconfig", "repro.hardware.reconfig:ReconfigurationPort", (
        "request", "advance",
    )),
    ("sim.trace", "repro.sim.trace:Trace", ("record", "record_lazy")),
    ("sim.executor", "repro.sim.integration", ("profile_program",)),
    ("forecast", "repro.sim.integration", ("run_forecast_pipeline",)),
    ("analysis.lint", "repro.analysis", ("lint_flow",)),
    ("analysis.verify", "repro.analysis.verify", ("verify_runtime",)),
    ("analysis.feasibility", "repro.analysis.feasibility", (
        "prove_feasibility", "port_backlog_bound",
    )),
    ("faults.injector", "repro.faults.injector:FaultInjector", (
        "step", "note_execution", "on_rotation_completed",
        "on_container_failed", "finalize",
    )),
    ("faults.chaos", "repro.faults", ("run_chaos_suite",)),
    ("faults.chaos", "repro.faults.chaos", ("run_chaos_suite",)),
    ("obs", "repro.obs.registry:Counter", ("inc",)),
    ("obs", "repro.obs.registry:Gauge", ("set", "inc", "dec")),
    ("obs", "repro.obs.registry:Histogram", ("observe",)),
    ("obs", "repro.obs.exporters", ("snapshot",)),
    ("recovery.journal", "repro.recovery.journal:JournalWriter", (
        "append", "close",
    )),
    # The write-ahead command protocol of the recoverable runtime.
    ("recovery.journal", "repro.recovery.runtime:RecoverableRuntime", (
        "_command",
    )),
    ("recovery.journal", "repro.recovery.runtime", ("read_journal",)),
    ("recovery.snapshot", "repro.recovery.runtime", (
        "snapshot_runtime", "write_snapshot", "restore_runtime",
        "load_snapshot", "latest_snapshot", "list_snapshots",
    )),
    ("recovery.verify", "repro.recovery", ("verify_resume",)),
)

#: Keyword defaults wrapped in place: ``(layer, function owner, name,
#: keyword)``.
KWDEFAULTS: tuple[tuple[str, str, str, str], ...] = (
    ("core.selection", "repro.runtime.manager:RisppRuntime", "__init__",
     "selection"),
)

#: Every layer the tracer reports, in report order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _, _ in BINDINGS]
        + [layer for layer, _, _, _ in KWDEFAULTS]
    )
)

_MISSING = object()


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class LayerTracer:
    """Wrap every layer entry point for the duration of a ``with`` block.

    ``calls[layer]`` and ``self_s[layer]`` accumulate across ``with``
    blocks until :meth:`reset`.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._saved_kwdefaults: list[tuple[dict, str, Any]] = []

    def reset(self) -> None:
        for layer in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def __enter__(self) -> "LayerTracer":
        if self._saved or self._saved_kwdefaults:
            raise RuntimeError("LayerTracer is not re-entrant")
        try:
            for layer, owner, names in BINDINGS:
                target = _resolve(owner)
                for name in names:
                    original = target.__dict__.get(name, _MISSING)
                    if original is _MISSING:
                        raise AttributeError(f"{owner} has no {name!r}")
                    self._saved.append((target, name, original))
                    setattr(target, name, self.wrap(layer, original))
            for layer, owner, name, keyword in KWDEFAULTS:
                defaults = _resolve(owner).__dict__[name].__kwdefaults__
                self._saved_kwdefaults.append(
                    (defaults, keyword, defaults[keyword])
                )
                defaults[keyword] = self.wrap(layer, defaults[keyword])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved_kwdefaults:
            defaults, keyword, original = self._saved_kwdefaults.pop()
            defaults[keyword] = original
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)
        self._stack.clear()
