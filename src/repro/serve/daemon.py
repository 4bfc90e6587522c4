"""The scenario daemon: a local HTTP/JSON front over the runtime facade.

``python -m repro serve`` starts a :class:`ScenarioServer` — a threading
HTTP server whose request threads block on the shared
:class:`~repro.serve.facade.RuntimeFacade`, so concurrent requests
shard across the worker process pool while responses stay byte-
deterministic per request.  The endpoint table is :data:`ENDPOINTS`;
``docs/serving.md`` documents each contract and the docs_check CI gate
holds the two to each other.

The daemon is deliberately boring operationally: it binds localhost by
default, speaks plain HTTP/1.1 with JSON bodies, answers health and
readiness probes, streams the Prometheus exposition of its service
registry, and shuts down gracefully (exit 0) on ``POST /shutdown`` or
SIGINT.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .facade import FacadeClosed, RuntimeFacade, ScenarioError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: The service surface: ``(method, path, description)``.  Adding an
#: endpoint here without documenting it in ``docs/serving.md`` (or vice
#: versa) fails ``repro.analysis.docs_check``.
ENDPOINTS: tuple[tuple[str, str, str], ...] = (
    ("GET", "/healthz", "liveness probe; 200 'ok' while the process serves"),
    ("GET", "/readyz", "readiness probe; 200 while the worker pool accepts "
     "scenarios, 503 during shutdown or once a worker died"),
    ("GET", "/metrics", "Prometheus text exposition of the service registry"),
    ("POST", "/scenario", "run one scenario request; the JSON body is the "
     "rendered chaos report, byte-identical to 'repro chaos --format json'"),
    ("POST", "/shutdown", "graceful stop: drain workers, exit 0"),
)

_MAX_BODY_BYTES = 1 << 20  # a scenario request is a small JSON object


class ScenarioServer(ThreadingHTTPServer):
    """HTTP server owning the facade and the service metric registry."""

    daemon_threads = True

    def __init__(self, host: str, port: int, *, workers: int = 1):
        from ..obs import MetricRegistry

        self.registry = MetricRegistry()
        self.facade = RuntimeFacade(workers=workers, metrics=self.registry)
        self._m_requests = self.registry.counter("serve_requests_total")
        #: Set by ``POST /shutdown``; observed by :meth:`serve_until_stopped`.
        self.stop_requested = threading.Event()
        super().__init__((host, port), _Handler)

    def count_request(self, endpoint: str) -> None:
        self._m_requests.labels(endpoint=endpoint).inc()

    def serve_until_stopped(self) -> None:
        """Serve until ``POST /shutdown`` (or ``shutdown()``), then drain."""
        stopper = threading.Thread(
            target=self._watch_stop, name="serve-stop", daemon=True
        )
        stopper.start()
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.stop_requested.set()
            self.facade.shutdown()

    def _watch_stop(self) -> None:
        self.stop_requested.wait()
        self.shutdown()


class _Handler(BaseHTTPRequestHandler):
    server: ScenarioServer  # narrowed for the route handlers
    protocol_version = "HTTP/1.1"

    # The default implementation logs every request line to stderr; a
    # long-running daemon's request log is the metrics endpoint's job.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing ---------------------------------------------------------

    def _send(
        self, status: int, body: str, content_type: str = "application/json"
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, status: int, message: str, **extra: str) -> None:
        self._send(status, json.dumps({"error": message, **extra}) + "\n")

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        if self.path == "/healthz":
            self.server.count_request("healthz")
            self._send(200, "ok\n", content_type="text/plain")
        elif self.path == "/readyz":
            self.server.count_request("readyz")
            if self.server.facade.ready():
                self._send(200, "ready\n", content_type="text/plain")
            elif self.server.facade.broken:
                self._send(503, "broken\n", content_type="text/plain")
            else:
                self._send(503, "draining\n", content_type="text/plain")
        elif self.path == "/metrics":
            self.server.count_request("metrics")
            from ..obs import to_prometheus

            self._send(
                200,
                to_prometheus(self.server.registry),
                content_type="text/plain; version=0.0.4",
            )
        else:
            self.server.count_request("other")
            self._send_error(404, f"no such endpoint: GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if self.path == "/scenario":
            self.server.count_request("scenario")
            self._run_scenario()
        elif self.path == "/shutdown":
            self.server.count_request("shutdown")
            self._send(200, json.dumps({"stopping": True}) + "\n")
            self.server.stop_requested.set()
        else:
            self.server.count_request("other")
            self._send_error(404, f"no such endpoint: POST {self.path}")

    def _run_scenario(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error(400, "malformed Content-Length")
            return
        if length <= 0:
            self._send_error(400, "scenario request needs a JSON body")
            return
        if length > _MAX_BODY_BYTES:
            self._send_error(413, "scenario request body too large")
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error(400, f"request body is not JSON: {exc}")
            return
        try:
            body = self.server.facade.run(payload)
        except ScenarioError as exc:
            self._send_error(400, str(exc))
            return
        except FacadeClosed:
            self._send_error(503, "service is shutting down")
            return
        except Exception as exc:  # noqa: BLE001 - answer, don't drop the connection
            traceback.print_exc(file=sys.stderr)
            self._send_error(
                500, f"scenario failed: {exc}", type=type(exc).__name__
            )
            return
        self._send(200, body)


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    workers: int = 1,
) -> int:
    """Run the daemon until shutdown; the ``repro serve`` entry point.

    Prints the bound address (``serving on http://host:port``) once
    listening — with ``port=0`` the kernel picks a free port and this
    line is how callers learn it.  Returns 0 on graceful shutdown.
    """
    server = ScenarioServer(host, port, workers=workers)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    print(
        f"scenario workers: {workers}; endpoints: "
        + ", ".join(f"{m} {p}" for m, p, _ in ENDPOINTS),
        file=sys.stderr,
    )
    try:
        server.serve_until_stopped()
    except KeyboardInterrupt:
        server.facade.shutdown()
    finally:
        server.server_close()
    return 0
