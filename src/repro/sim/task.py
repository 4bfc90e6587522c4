"""Scripted tasks and the quasi-parallel multi-task engine.

The Fig. 6 scenario interleaves two tasks on one core while they share
the Atom Containers.  :class:`ScriptedTask` describes each task as a
sequence of actions: compute, execute an SI n times, a marker label, or
one of the runtime commands of :mod:`repro.commands` (fire or end a
forecast, advance the clock, lose a container);
:class:`MultiTaskSimulator` co-schedules the tasks against one
:class:`~repro.runtime.manager.RisppRuntime`, always advancing the task
with the smallest local clock — a behavioural stand-in for the paper's
quasi-parallel execution of Tasks A and B.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..commands import Advance, Execute, FailContainer, Forecast, ForecastEnd, apply
from .trace import EventKind

if TYPE_CHECKING:  # avoid a circular import; only needed for typing
    from ..runtime.manager import RisppRuntime


@dataclass(frozen=True)
class Compute:
    """Plain core work."""

    cycles: int


@dataclass(frozen=True)
class ExecuteSI:
    """Execute an SI ``times`` times back to back."""

    si_name: str
    times: int = 1


@dataclass(frozen=True)
class Label:
    """A named marker (the T0..T5 annotations of Fig. 6)."""

    name: str


#: A script step.  A forecast command's ``task`` is filled in with the
#: name of the task whose script holds it.
Action = Compute | ExecuteSI | Label | Forecast | ForecastEnd | Advance | FailContainer


@dataclass
class ScriptedTask:
    """One task: a name and its action script."""

    name: str
    actions: list[Action]
    clock: int = 0
    index: int = field(default=0, compare=False)
    #: SI executions already performed of the current ExecuteSI action.
    si_progress: int = field(default=0, compare=False)

    def done(self) -> bool:
        return self.index >= len(self.actions)


@dataclass
class MultiTaskSimulator:
    """Co-schedules scripted tasks over one RISPP runtime."""

    runtime: "RisppRuntime"
    tasks: list[ScriptedTask]
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [t.name for t in self.tasks]
        if len(names) != len(set(names)):
            raise ValueError("task names must be unique")

    def step(self) -> bool:
        """Execute one step of the least-advanced task; False when done.

        SI executions interleave one at a time — a long ``ExecuteSI``
        batch must not race the shared hardware state past the other
        tasks' clocks.
        """
        runnable = [t for t in self.tasks if not t.done()]
        if not runnable:
            return False
        task = min(runnable, key=lambda t: (t.clock, t.name))
        action = task.actions[task.index]
        now = task.clock
        if isinstance(action, ExecuteSI):
            if action.times < 0:
                raise ValueError("SI execution count cannot be negative")
            if task.si_progress < action.times:
                command = Execute(action.si_name, task.name)
                task.clock += apply(self.runtime, command, now)
                task.si_progress += 1
            if task.si_progress >= action.times:
                task.si_progress = 0
                task.index += 1
            return True
        task.index += 1
        if isinstance(action, Compute):
            if action.cycles < 0:
                raise ValueError("compute cycles cannot be negative")
            task.clock += action.cycles
        elif isinstance(action, Label):
            self.labels[f"{task.name}:{action.name}"] = now
            # Drain rotation completions up to `now` first: the label is
            # recorded directly into the trace, and completions that
            # happened earlier must precede it (time-ordered contract).
            self.runtime.advance(now)
            self.runtime.trace.record(
                now, EventKind.TASK_STEP, task=task.name, label=action.name
            )
        else:  # a runtime command; a forecast is the scripting task's
            if isinstance(action, (Forecast, ForecastEnd)):
                action = replace(action, task=task.name)
            apply(self.runtime, action, now)
        return True

    def run(self, *, max_steps: int = 1_000_000) -> None:
        """Run all tasks to completion."""
        for _ in range(max_steps):
            if not self.step():
                return
        raise RuntimeError(f"simulation exceeded {max_steps} steps")

    def label_time(self, task: str, label: str) -> int:
        """Cycle at which a task passed a :class:`Label`."""
        return self.labels[f"{task}:{label}"]
