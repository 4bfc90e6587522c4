"""Run-time architecture (paper §5): monitor, select, rotate, replace."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "manager": "RisppRuntime RuntimeStats",
    "monitor": "ForecastMonitor ForecastWindow SIForecastStats",
    "replacement": (
        "choose_victim HighestIdPolicy LRUPolicy MRUPolicy ReplacementPolicy victim_candidates"
    ),
    "rotation": "future_population plan_rotations RotationPlan",
})
