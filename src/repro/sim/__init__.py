"""Simulation substrate: program IR, interpreter, core model, tasks, trace."""

from ..commands import Forecast, ForecastEnd
from .executor import ExecutionResult, execute, profile_program
from .integration import (
    AnnotatedRunResult,
    CompileAndRunResult,
    compile_and_run,
    run_annotated_program,
)
from .ir import Branch, Exit, IRBlock, Jump, Program
from .processor import DEFAULT_COSTS, CoreModel
from .task import Action, Compute, ExecuteSI, Label, MultiTaskSimulator, ScriptedTask
from .trace import Event, EventKind, Trace

__all__ = [
    "Action",
    "AnnotatedRunResult",
    "Branch",
    "CompileAndRunResult",
    "Compute",
    "CoreModel",
    "DEFAULT_COSTS",
    "Event",
    "EventKind",
    "ExecuteSI",
    "ExecutionResult",
    "Exit",
    "Forecast",
    "ForecastEnd",
    "IRBlock",
    "Jump",
    "Label",
    "MultiTaskSimulator",
    "Program",
    "ScriptedTask",
    "Trace",
    "compile_and_run",
    "execute",
    "profile_program",
    "run_annotated_program",
]
