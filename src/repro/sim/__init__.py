"""Simulation substrate: program IR, interpreter, tasks, trace."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "executor": "execute ExecutionResult profile_program",
    "integration": "AnnotatedRunResult compile_and_run CompileAndRunResult run_annotated_program",
    "ir": "Branch Exit IRBlock Jump Program",
    "task": "Action Compute ExecuteSI Forecast ForecastEnd Label MultiTaskSimulator ScriptedTask",
    "trace": "Event EventKind Trace",
})
