"""`repro serve` integration: facade, daemon endpoints, determinism.

The contract under test is :doc:`docs/serving.md`: a scenario request
POSTed to the daemon returns *byte-identical* output to running
``repro chaos --format json`` with the same knobs, deterministically
per seed, regardless of which pool worker picks it up.  The daemon
itself is exercised in-process (a real ``ScenarioServer`` on an
ephemeral port, driven over real HTTP) so the tests cover routing,
validation codes and the metrics endpoint without subprocess overhead.
"""

import http.client
import json
import os
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.faults import run_chaos_suite
from repro.obs import MetricRegistry, parse_prometheus, to_prometheus
from repro.serve import (
    ENDPOINTS,
    SCENARIO_DEFAULTS,
    RuntimeFacade,
    ScenarioError,
    ScenarioRequest,
    render_scenario,
)
from repro.serve.daemon import ScenarioServer


def expected_render(**overrides) -> str:
    """What ``repro chaos --format json`` prints for these knobs."""
    knobs = {**SCENARIO_DEFAULTS, **overrides}
    report = run_chaos_suite(
        knobs["suite"],
        seed=knobs["seed"],
        fault_rate=knobs["fault_rate"],
        quick=knobs["quick"],
        scrub_period=knobs["scrub_period"],
        max_retries=knobs["max_retries"],
        backoff_cycles=knobs["backoff_cycles"],
    )
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestScenarioRequest:
    def test_defaults_fill_missing_fields(self):
        request = ScenarioRequest.from_payload({"seed": 7})
        assert request.seed == 7
        assert request.suite == SCENARIO_DEFAULTS["suite"]
        assert request.fault_rate == SCENARIO_DEFAULTS["fault_rate"]
        assert request.quick is SCENARIO_DEFAULTS["quick"]
        assert request.to_payload() == {**SCENARIO_DEFAULTS, "seed": 7}

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"flux_capacitor": 1}, "unknown scenario field"),
            ({"suite": "doom"}, "unknown suite"),
            ({"seed": 0}, "seed must be positive"),
            ({"seed": "many"}, "malformed scenario field"),
            ({"fault_rate": -1.0}, "fault_rate must be finite"),
            ({"fault_rate": float("inf")}, "fault_rate must be finite"),
            ({"scrub_period": 0}, "scrub_period must be positive"),
            ({"max_retries": -1}, "max_retries cannot be negative"),
            ({"backoff_cycles": 0}, "backoff_cycles must be positive"),
            ({"backend": 3}, "backend must be a string or null"),
            ({"backend": "abacus"}, "not available here"),
            ({"quick": "yes"}, "quick must be a boolean"),
            ("not a mapping", "must be a JSON object"),
        ],
    )
    def test_junk_is_rejected(self, payload, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioRequest.from_payload(payload)


class TestRuntimeFacade:
    def test_rejects_non_positive_worker_count(self):
        with pytest.raises(ValueError, match="worker count must be positive"):
            RuntimeFacade(workers=0)

    def test_render_matches_direct_chaos_run(self):
        request = ScenarioRequest.from_payload({"seed": 3})
        assert render_scenario(request) == expected_render(seed=3)

    def test_run_is_deterministic_and_counts_scenarios(self):
        registry = MetricRegistry()
        with RuntimeFacade(workers=2, metrics=registry) as facade:
            first = facade.run({"seed": 3})
            second = facade.run({"seed": 3})
        assert first == second == expected_render(seed=3)
        series = parse_prometheus(to_prometheus(registry))
        counted = sum(
            value
            for name, entry in series.items()
            if "serve_scenarios_total" in name
            for value in entry["samples"].values()
        )
        assert counted == 2

    def test_validation_error_raises_before_pool(self):
        with RuntimeFacade(workers=1) as facade:
            with pytest.raises(ScenarioError, match="seed must be positive"):
                facade.run({"seed": -4})

    def test_submit_after_shutdown_is_refused(self):
        facade = RuntimeFacade(workers=1)
        facade.shutdown()
        assert not facade.ready()
        with pytest.raises(RuntimeError, match="shut down"):
            facade.submit({"seed": 1})
        facade.shutdown()  # idempotent


# ---------------------------------------------------------------------------
# Daemon over real HTTP on an ephemeral port
# ---------------------------------------------------------------------------


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _post(base: str, path: str, body: bytes):
    request = urllib.request.Request(
        base + path,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


@pytest.fixture(scope="module")
def daemon():
    server = ScenarioServer("127.0.0.1", 0, workers=2)
    thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.stop_requested.set()
        thread.join(timeout=30)
        server.server_close()


class TestDaemonEndpoints:
    def test_health_and_readiness(self, daemon):
        _, base = daemon
        assert _get(base, "/healthz") == (200, "ok\n")
        assert _get(base, "/readyz") == (200, "ready\n")

    def test_unknown_routes_are_404(self, daemon):
        _, base = daemon
        status, body = _get(base, "/teapot")
        assert status == 404
        assert "no such endpoint: GET /teapot" in json.loads(body)["error"]
        status, body = _post(base, "/teapot", b"{}")
        assert status == 404

    def test_scenario_response_is_byte_identical_to_cli(self, daemon):
        _, base = daemon
        status, body = _post(base, "/scenario", json.dumps({"seed": 3}).encode())
        assert status == 200
        assert body == expected_render(seed=3)

    def test_same_seed_is_identical_across_workers(self, daemon):
        _, base = daemon
        results: dict[int, tuple[int, str]] = {}

        def run(slot: int, seed: int) -> None:
            results[slot] = _post(
                base, "/scenario", json.dumps({"seed": seed}).encode()
            )

        threads = [
            threading.Thread(target=run, args=(slot, seed))
            for slot, seed in enumerate([3, 5, 3])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in results.values())
        assert results[0][1] == results[2][1]
        assert results[0][1] != results[1][1]

    @pytest.mark.parametrize(
        "body, status, fragment",
        [
            (b"", 400, "needs a JSON body"),
            (b"not json", 400, "not JSON"),
            (b'{"seed": 0}', 400, "seed must be positive"),
            (b'{"flux": 1}', 400, "unknown scenario field"),
        ],
    )
    def test_bad_scenario_requests(self, daemon, body, status, fragment):
        _, base = daemon
        got_status, got_body = _post(base, "/scenario", body)
        assert got_status == status
        assert fragment in json.loads(got_body)["error"]

    @pytest.mark.parametrize(
        "length, status, fragment",
        [
            (str((1 << 20) + 1), 413, "too large"),
            ("a lot", 400, "malformed Content-Length"),
        ],
    )
    def test_bad_content_length_is_refused_unread(
        self, daemon, length, status, fragment
    ):
        # The daemon answers from the Content-Length header alone, before
        # reading any body — so the probe claims a length and sends none.
        server, _base = daemon
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.putrequest("POST", "/scenario")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            assert fragment in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_metrics_parse_and_count_scenarios(self, daemon):
        _, base = daemon
        status, text = _get(base, "/metrics")
        assert status == 200
        series = parse_prometheus(text)
        assert any("serve_scenarios_total" in name for name in series)
        assert any("serve_requests_total" in name for name in series)
        assert any("serve_workers" in name for name in series)

    def test_documented_endpoints_all_answer(self, daemon):
        _, base = daemon
        for method, path, _ in ENDPOINTS:
            if path == "/shutdown":
                continue  # covered by the dedicated lifecycle test
            if method == "GET":
                status, _body = _get(base, path)
            else:
                status, _body = _post(
                    base, path, json.dumps({"seed": 2}).encode()
                )
            assert status == 200, f"{method} {path} -> {status}"


def test_dead_worker_answers_500_and_unready():
    server = ScenarioServer("127.0.0.1", 0, workers=1)
    thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        assert _get(base, "/readyz") == (200, "ready\n")
        worker = server.facade._pool.submit(os.getpid).result(timeout=60)
        os.kill(worker, signal.SIGKILL)
        status, body = _post(base, "/scenario", json.dumps({"seed": 3}).encode())
        assert status == 500
        error = json.loads(body)
        assert error["type"] == "BrokenProcessPool"
        assert error["error"].startswith("scenario failed: ")
        assert _get(base, "/readyz") == (503, "broken\n")
        # The pool stays broken: later requests fail the same way.
        status, body = _post(base, "/scenario", json.dumps({"seed": 3}).encode())
        assert status == 500
        assert json.loads(body)["type"] == "BrokenProcessPool"
        assert _get(base, "/healthz") == (200, "ok\n")
    finally:
        server.stop_requested.set()
        thread.join(timeout=30)
        server.server_close()


def test_unexpected_failure_answers_500(daemon, monkeypatch):
    server, base = daemon

    def explode(payload):
        raise KeyError("lost")

    monkeypatch.setattr(server.facade, "run", explode)
    status, body = _post(base, "/scenario", json.dumps({"seed": 3}).encode())
    assert status == 500
    assert json.loads(body) == {
        "error": "scenario failed: 'lost'", "type": "KeyError",
    }


def test_shutdown_endpoint_drains_and_stops():
    server = ScenarioServer("127.0.0.1", 0, workers=1)
    thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        status, body = _post(base, "/shutdown", b"")
        assert status == 200
        assert json.loads(body) == {"stopping": True}
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not server.facade.ready()
    finally:
        server.stop_requested.set()
        thread.join(timeout=10)
        server.server_close()
