"""Run-time forecast fine-tuning (paper §5, task a).

The compile-time Forecast points carry *initial* probability / distance /
execution-count values; at run time the monitor observes what actually
happens and blends the observation into the estimate with exponential
smoothing — "our forecast updating scheme maximizes the expectation /
probability of the prediction" (§2, novel contribution a/d).

One :class:`ForecastWindow` spans from a forecast firing to its end (or
the next firing): the executions observed in the window update the
expectation used the next time the same (task, SI) forecast fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..state import counter, state, wiring

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.registry import MetricRegistry


@dataclass
class ForecastWindow:
    """Executions observed since a forecast fired."""

    si_name: str
    task: str
    opened_at: int
    predicted: float
    observed: int = 0


@dataclass
class SIForecastStats:
    """Smoothed per-(task, SI) expectation and accuracy bookkeeping."""

    expectation: float
    windows: int = 0
    total_predicted: float = 0.0
    total_observed: int = 0
    #: Windows in which the forecasted SI actually executed at least once.
    hit_windows: int = 0


class ForecastMonitor:
    """Observes SI executions and fine-tunes forecast expectations."""

    #: The state declaration (roles: :mod:`repro.state`).
    STATE_ROLES = {
        "_stats": state(dict[tuple[str, str], SIForecastStats]),
        "_open": state(dict[tuple[str, str], ForecastWindow]),
        # Telemetry tallies behind the drift gauge; selection never reads them.
        "_windows_seen": counter(int),
        "_abs_error_sum": counter(float),
        **wiring("smoothing", "_obs_on", "_m_error", "_m_hit", "_m_miss", "_m_drift"),
    }

    def __init__(
        self,
        *,
        smoothing: float = 0.5,
        metrics: "MetricRegistry | None" = None,
    ):
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing factor must be in (0, 1]")
        self.smoothing = smoothing
        self._stats: dict[tuple[str, str], SIForecastStats] = {}
        self._open: dict[tuple[str, str], ForecastWindow] = {}
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics: "MetricRegistry | None") -> None:
        """(Re)bind telemetry — the runtime calls this to share its registry."""
        from ..obs.registry import DISABLED

        obs = metrics if metrics is not None else DISABLED
        self._obs_on = obs.enabled
        self._m_error = obs.histogram("forecast_error_abs")
        self._m_hit = obs.counter("forecast_windows_total").labels(outcome="hit")
        self._m_miss = obs.counter("forecast_windows_total").labels(outcome="miss")
        self._m_drift = obs.gauge("forecast_drift_ratio")
        self._windows_seen = 0
        self._abs_error_sum = 0.0

    # -- the forecast lifecycle -------------------------------------------

    def forecast_fired(
        self, task: str, si_name: str, compile_time_expectation: float, now: int
    ) -> float:
        """A forecast fires; returns the (possibly fine-tuned) expectation.

        The first firing uses the compile-time value; later firings use
        the smoothed estimate.  An already-open window for the same
        (task, SI) is closed first — consecutive forecasts delimit each
        other.
        """
        key = (task, si_name)
        if key in self._open:
            self.forecast_ended(task, si_name, now)
        stats = self._stats.get(key)
        if stats is None:
            stats = SIForecastStats(expectation=compile_time_expectation)
            self._stats[key] = stats
        self._open[key] = ForecastWindow(
            si_name=si_name,
            task=task,
            opened_at=now,
            predicted=stats.expectation,
        )
        return stats.expectation

    def si_executed(self, task: str, si_name: str) -> None:
        """Record an execution into the open window (no-op when none)."""
        window = self._open.get((task, si_name))
        if window is not None:
            window.observed += 1

    def forecast_ended(self, task: str, si_name: str, now: int) -> None:
        """Close the window and blend the observation into the estimate."""
        key = (task, si_name)
        window = self._open.pop(key, None)
        if window is None:
            return
        stats = self._stats[key]
        stats.windows += 1
        stats.total_predicted += window.predicted
        stats.total_observed += window.observed
        if window.observed:
            stats.hit_windows += 1
        stats.expectation = (
            (1 - self.smoothing) * stats.expectation
            + self.smoothing * window.observed
        )
        if self._obs_on:
            error = abs(window.predicted - window.observed)
            self._m_error.observe(error)
            (self._m_hit if window.observed else self._m_miss).inc()
            self._windows_seen += 1
            self._abs_error_sum += error
            self._m_drift.set(self._abs_error_sum / self._windows_seen)

    # -- queries -------------------------------------------------------------

    def expectation(self, task: str, si_name: str, default: float = 0.0) -> float:
        stats = self._stats.get((task, si_name))
        return stats.expectation if stats is not None else default

    def stats(self, task: str, si_name: str) -> SIForecastStats | None:
        return self._stats.get((task, si_name))
