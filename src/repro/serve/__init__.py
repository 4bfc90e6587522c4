"""repro.serve — the long-running scenario daemon (``python -m repro serve``).

A :class:`RuntimeFacade` shards deterministic chaos scenarios across a
process pool, and a local HTTP/JSON daemon (:mod:`repro.serve.daemon`)
exposes it: POST a scenario request (suite, seed, fault-rate,
fault-handling config) to ``/scenario`` and receive the exact bytes
``repro chaos --format json`` would print for the same flags — the
chaos/verify/recovery determinism contracts carry over to the service
unchanged.  ``/metrics`` streams the ``repro.obs`` Prometheus
exposition; ``/healthz`` and ``/readyz`` answer liveness and readiness.
The full API schema and endpoint contracts live in ``docs/serving.md``.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "daemon": "DEFAULT_HOST DEFAULT_PORT ENDPOINTS ScenarioServer serve",
    "facade": "render_scenario RuntimeFacade ScenarioError ScenarioRequest",
})
