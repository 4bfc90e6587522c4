"""The runtime facade: deterministic scenarios over a process pool.

:class:`RuntimeFacade` is the programmatic service surface the HTTP
daemon sits on: it validates scenario payloads into
:class:`ScenarioRequest` objects (:class:`repro.scenario.Scenario`
with ``quick`` on by default), runs each one through
:func:`repro.faults.chaos.run_chaos_suite` in a worker process, and
returns the rendered report — the exact bytes ``repro chaos --format
json`` prints for the same flags (``json.dumps(report, indent=2,
sort_keys=True)`` plus a trailing newline).  The worker also returns the
report's ``chaos_ok`` verdict, so the facade's process never imports
the runtime, the fault subsystem or the analysis package.

Determinism contract: a scenario's output is a pure function of its
request fields.  Workers keep no per-request state, so pool reuse
cannot leak one request into the next, and two facades with different
worker counts produce byte-identical responses for the same request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..scenario import Scenario, ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ProcessPoolExecutor

    from ..obs.registry import MetricRegistry


class FacadeClosed(RuntimeError):
    """The facade was shut down and takes no work (HTTP 503 at the daemon)."""


@dataclass(frozen=True)
class ScenarioRequest(Scenario):
    """A scenario as the service takes it: a service answers
    interactively, so reduced sizes are the default (``"quick": false``
    opts in to full size)."""

    quick: bool = True


def _judged_render(request: Scenario) -> tuple[str, bool]:
    """Run one scenario: the rendered report and its ``chaos_ok`` verdict.

    The pool's unit of work.  The worker judges the report it built, so
    the daemon counts outcomes without parsing the body or ever loading
    the runtime.
    """
    from ..faults.chaos import chaos_ok, run_chaos_suite

    knobs = request.to_payload()
    report = run_chaos_suite(knobs.pop("suite"), **knobs)
    return json.dumps(report, indent=2, sort_keys=True) + "\n", chaos_ok(report)


def render_scenario(request: Scenario) -> str:
    """Run one scenario and render the report.

    Byte-identical to ``repro chaos --format json`` with the same flags.
    """
    return _judged_render(request)[0]


class RuntimeFacade:
    """Scenario execution sharded across a worker process pool."""

    def __init__(
        self,
        *,
        workers: int = 1,
        metrics: "MetricRegistry | None" = None,
    ):
        from ..obs.registry import DISABLED

        if workers < 1:
            raise ValueError(f"worker count must be positive, got {workers}")
        self.workers = workers
        obs = metrics if metrics is not None else DISABLED
        self._obs_on = obs.enabled
        scenarios = obs.counter("serve_scenarios_total")
        self._m_ok = scenarios.labels(outcome="ok")
        self._m_degraded = scenarios.labels(outcome="degraded")
        self._m_error = scenarios.labels(outcome="error")
        self._m_duration = obs.histogram("serve_scenario_duration_seconds")
        if self._obs_on:
            obs.gauge("serve_workers").set(workers)
        from concurrent.futures import ProcessPoolExecutor

        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers
        )
        #: Set once a worker process died: the pool refuses all further
        #: work, so the facade is no longer ready (there is no respawn).
        self.broken = False

    # -- lifecycle --------------------------------------------------------

    def ready(self) -> bool:
        """True while the pool accepts work (the ``/readyz`` answer)."""
        return self._pool is not None and not self.broken

    def shutdown(self) -> None:
        """Drain and release the pool; idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RuntimeFacade":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- execution --------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> "Future[tuple[str, bool]]":
        """Validate ``payload`` and queue it on the pool; the future holds
        :func:`_judged_render`'s ``(body, verdict)``.

        Validation runs in the caller (a :class:`ScenarioError` raises
        here, not inside the future), so the daemon can answer 400
        without burning a worker.
        """
        request = ScenarioRequest.from_payload(payload)
        pool = self._pool
        if pool is not None:
            try:
                return pool.submit(_judged_render, request)
            except RuntimeError:
                if self._pool is not None:
                    raise  # a broken pool, not a concurrent shutdown
        raise FacadeClosed("facade is shut down")

    def run(self, payload: Mapping[str, Any]) -> str:
        """Run one scenario to completion; returns the rendered report."""
        from ..obs import clock

        started = clock.perf_counter()
        try:
            body, verdict = self.submit(payload).result()
        except ScenarioError:
            raise
        except Exception as exc:
            from concurrent.futures.process import BrokenProcessPool

            if isinstance(exc, BrokenProcessPool):
                self.broken = True
            if self._obs_on:
                self._m_error.inc()
            raise
        if self._obs_on:
            self._m_duration.observe(clock.perf_counter() - started)
            (self._m_ok if verdict else self._m_degraded).inc()
        return body
