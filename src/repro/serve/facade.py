"""The runtime facade: deterministic scenarios over a process pool.

:class:`RuntimeFacade` is the programmatic service surface the HTTP
daemon (and the bench harness) sits on: it validates scenario payloads
into :class:`ScenarioRequest` objects, runs each one through
:func:`repro.faults.run_chaos_suite` in a worker process, and returns
the rendered report — the exact bytes ``repro chaos --format json``
prints for the same flags (``json.dumps(report, indent=2,
sort_keys=True)`` plus a trailing newline).

Determinism contract: a scenario's output is a pure function of its
request fields.  Workers re-pin the process-default compute backend on
every call (including back to "unpinned" when the request names none),
so pool reuse cannot leak one request's backend into the next, and two
facades with different worker counts produce byte-identical responses
for the same request.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricRegistry


class ScenarioError(ValueError):
    """A scenario payload failed validation (HTTP 400 at the daemon)."""


class FacadeClosed(RuntimeError):
    """The facade was shut down and takes no work (HTTP 503 at the daemon)."""


#: Scenario field defaults — one source of truth shared by the request
#: validator, ``docs/serving.md`` and the serve integration tests.
#: They mirror the ``repro chaos`` flag defaults except ``quick``: a
#: *service* answers interactively, so reduced scenario sizes are the
#: default and full-size runs are opt-in (``"quick": false``).
SCENARIO_DEFAULTS: dict[str, Any] = {
    "suite": "synthetic",
    "seed": 1,
    "fault_rate": 5.0,
    "scrub_period": 10_000,
    "max_retries": 3,
    "backoff_cycles": 1_000,
    "quick": True,
    "backend": None,
}


@dataclass(frozen=True, slots=True)
class ScenarioRequest:
    """One validated scenario: the chaos campaign a worker will run."""

    suite: str
    seed: int
    fault_rate: float
    scrub_period: int
    max_retries: int
    backoff_cycles: int
    quick: bool
    backend: str | None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioRequest":
        """Validate a JSON payload; raise :class:`ScenarioError` on junk."""
        import math

        from ..core.backend import available_backends
        from ..faults import CHAOS_SUITES

        if not isinstance(payload, Mapping):
            raise ScenarioError("scenario request must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        merged = {**SCENARIO_DEFAULTS, **dict(payload)}
        suite = merged["suite"]
        if suite not in CHAOS_SUITES:
            raise ScenarioError(
                f"unknown suite {suite!r}; one of {sorted(CHAOS_SUITES)}"
            )
        try:
            seed = int(merged["seed"])
            fault_rate = float(merged["fault_rate"])
            scrub_period = int(merged["scrub_period"])
            max_retries = int(merged["max_retries"])
            backoff_cycles = int(merged["backoff_cycles"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario field: {exc}") from None
        if seed < 1:
            raise ScenarioError(f"seed must be positive, got {seed}")
        if not math.isfinite(fault_rate) or fault_rate < 0:
            raise ScenarioError(
                f"fault_rate must be finite and non-negative, got {fault_rate}"
            )
        if scrub_period < 1:
            raise ScenarioError(
                f"scrub_period must be positive, got {scrub_period}"
            )
        if max_retries < 0:
            raise ScenarioError(
                f"max_retries cannot be negative, got {max_retries}"
            )
        if backoff_cycles < 1:
            raise ScenarioError(
                f"backoff_cycles must be positive, got {backoff_cycles}"
            )
        backend = merged["backend"]
        if backend is not None:
            if not isinstance(backend, str):
                raise ScenarioError("backend must be a string or null")
            if backend not in available_backends():
                raise ScenarioError(
                    f"backend {backend!r} is not available here; one of "
                    f"{list(available_backends())}"
                )
        quick = merged["quick"]
        if not isinstance(quick, bool):
            raise ScenarioError("quick must be a boolean")
        return cls(
            suite=suite,
            seed=seed,
            fault_rate=fault_rate,
            scrub_period=scrub_period,
            max_retries=max_retries,
            backoff_cycles=backoff_cycles,
            quick=quick,
            backend=backend,
        )

    def to_payload(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def render_scenario(request: ScenarioRequest) -> str:
    """Run one scenario and render the report — the service's unit of work.

    Byte-identical to ``repro chaos --format json`` with the same flags.
    """
    from ..core.backend import set_default_backend
    from ..faults import run_chaos_suite

    # Re-pin (or unpin) the process default on every call: worker
    # processes are reused across requests and must not inherit the
    # previous request's backend.
    set_default_backend(request.backend)
    report = run_chaos_suite(
        request.suite,
        seed=request.seed,
        fault_rate=request.fault_rate,
        quick=request.quick,
        scrub_period=request.scrub_period,
        max_retries=request.max_retries,
        backoff_cycles=request.backoff_cycles,
    )
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _pool_run(payload: dict[str, Any]) -> str:
    """Worker entry point (module-level so the pool can pickle it)."""
    return render_scenario(ScenarioRequest.from_payload(payload))


class RuntimeFacade:
    """Scenario execution sharded across a worker process pool."""

    def __init__(
        self,
        *,
        workers: int = 1,
        metrics: "MetricRegistry | None" = None,
    ):
        from ..obs import DISABLED

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

    def submit(self, payload: Mapping[str, Any]) -> "Future[str]":
        """Validate ``payload`` and queue it on the pool.

        Validation runs in the caller (a :class:`ScenarioError` raises
        here, not inside the future), so the daemon can answer 400
        without burning a worker.
        """
        request = ScenarioRequest.from_payload(payload)
        pool = self._pool
        if pool is not None:
            try:
                return pool.submit(_pool_run, request.to_payload())
            except RuntimeError:
                if self._pool is not None:
                    raise  # a broken pool, not a concurrent shutdown
        raise FacadeClosed("facade is shut down")

    def run(self, payload: Mapping[str, Any]) -> str:
        """Run one scenario to completion; returns the rendered report."""
        from ..obs import clock

        started = clock.perf_counter()
        try:
            result = self.submit(payload).result()
        except ScenarioError:
            raise
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                self.broken = True
            if self._obs_on:
                self._m_error.inc()
            raise
        if self._obs_on:
            from ..faults import chaos_ok

            self._m_duration.observe(clock.perf_counter() - started)
            verdict = chaos_ok(json.loads(result))
            (self._m_ok if verdict else self._m_degraded).inc()
        return result
