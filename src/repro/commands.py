"""One declaration of the run-time system's five inputs.

Paper §5's run-time system reacts to Forecast points firing
(:class:`Forecast`) and ending (:class:`ForecastEnd`), SI executions
(:class:`Execute`), the clock (:class:`Advance`) and container loss
(:class:`FailContainer`).  Each input is a frozen command whose ``op``
names the runtime method it calls and whose fields are the journal's
``args`` keys; :func:`apply` is the one dispatcher from a command to
that method.  The journal, the explorer and scripted tasks all hold
commands, so each can replay the others' command lists.  Drivers read
the state that steers them through :func:`query`.  The module imports
nothing from the package, so every layer can use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, get_args


@dataclass(frozen=True)
class Forecast:
    """A Forecast point fires: ``task`` expects ``expected`` (None: 1) runs of ``si``."""

    op: ClassVar[str] = "forecast"
    si: str
    task: str = "main"
    expected: float | None = None
    priority: float = 1.0


@dataclass(frozen=True)
class ForecastEnd:
    """A Forecast point declares ``si`` no longer needed by ``task``."""

    op: ClassVar[str] = "forecast_end"
    si: str
    task: str = "main"


@dataclass(frozen=True)
class Execute:
    """One execution of ``si`` for ``task``; applying it returns the latency."""

    op: ClassVar[str] = "execute_si"
    si: str
    task: str = "main"


@dataclass(frozen=True)
class Advance:
    """Bring the hardware state up to the cycle the command is applied at."""

    op: ClassVar[str] = "advance"


@dataclass(frozen=True)
class FailContainer:
    """Atom Container ``container`` is lost."""

    op: ClassVar[str] = "fail_container"
    container: int


Command = Forecast | ForecastEnd | Execute | Advance | FailContainer

#: Every command type by its ``op``: the journal's spelling of the kind.
COMMANDS: dict[str, type[Command]] = {cls.op: cls for cls in get_args(Command)}


def apply(runtime: Any, command: Command, now: int) -> Any:
    """Feed ``command`` to ``runtime`` (a ``RisppRuntime`` or a journaling
    ``RecoverableRuntime``) at cycle ``now``; returns the input method's
    result: the SI's latency for :class:`Execute`, else ``None``."""
    match command:
        case Execute(si, task):
            return runtime.execute_si(si, now, task=task)
        case Forecast(si, task, expected, priority):
            return runtime.forecast(si, now, task=task, expected=expected, priority=priority)
        case ForecastEnd(si, task):
            return runtime.forecast_end(si, now, task=task)
        case Advance():
            return runtime.advance(now)
        case FailContainer(container):
            return runtime.fail_container(container, now)
    raise TypeError(f"not a runtime command: {command!r}")


#: State reads a driver may steer a scenario by (loop bounds, quiescence).
QUERIES: dict[str, Callable[[Any], Any]] = {
    "last_cycle": lambda rt: rt.trace.last_cycle,
    "port_idle": lambda rt: rt.port.is_idle(),
    "open_episodes": lambda rt: (
        rt._faults.open_episodes() if rt._faults is not None else 0
    ),
}


def query(runtime: Any, name: str) -> Any:
    """Read the runtime state ``QUERIES[name]`` names.

    Drivers must use this for any state read that steers the scenario:
    a journaling ``RecoverableRuntime`` answers through its own
    ``query``, which journals the read so a resumed run answers from the
    journal instead of the post-replay state; a plain runtime is read
    directly.
    """
    journaled = getattr(runtime, "query", None)
    if journaled is not None:
        return journaled(name)
    return QUERIES[name](runtime)
