"""Service-side observability: Prometheus endpoint, access logs, trace
propagation through the HTTP seam."""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time

import pytest

from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.service import ExplorationService, ServiceClient, ServiceServer
from repro.service.server import TRACE_HEADER

from tests.obs.test_metrics import assert_valid_exposition

TINY_SPEC = {"tiny": True, "kernels": ["sor"], "max_lanes": 2}


@pytest.fixture
def server():
    srv = ServiceServer(("127.0.0.1", 0),
                        ExplorationService(max_concurrency=2))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


def _get(server, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestPrometheusEndpoint:
    def test_prometheus_format_is_valid_exposition(self, server, client):
        from repro.resilience import COUNTERS

        COUNTERS.bump("obs.test_probe")  # counters render once non-zero
        client.suite(dict(TINY_SPEC))
        # the client returns once it reads the final chunk, which can beat
        # the handler thread's finally-block observation — poll briefly
        deadline = time.monotonic() + 5.0
        while True:
            status, headers, body = _get(server, "/metrics?format=prometheus")
            if (b"tybec_request_seconds_bucket" in body
                    or time.monotonic() > deadline):
                break
            time.sleep(0.02)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert_valid_exposition(text)
        # the previously-scattered surfaces all show up in one exposition
        assert "tybec_service_requests_total" in text
        assert "tybec_service_sweeps_total" in text
        assert "tybec_service_coalesce_total" in text
        assert "tybec_resilience_events_total" in text
        assert "tybec_pipeline_cache_requests_total" in text
        assert "tybec_service_uptime_seconds" in text
        # the native request-latency histogram recorded the suite POST
        assert "tybec_request_seconds_bucket" in text
        assert 'endpoint="/suite"' in text

    def test_json_metrics_shape_is_unchanged(self, server, client):
        client.suite(dict(TINY_SPEC))
        payload = client.metrics()
        # the PR-4/PR-6 metrics contract every existing dashboard reads
        assert set(payload) >= {"uptime_seconds", "requests", "sweeps",
                                "coalesce", "queue", "resilience"}
        assert payload["sweeps"]["completed"] == 1

    def test_unknown_format_is_a_400(self, server):
        status, _, body = _get(server, "/metrics?format=xml")
        assert status == 400
        assert b"unknown metrics format" in body

    def test_endpoint_label_cardinality_is_clamped(self, server):
        for path in ("/nope", "/attack-1", "/attack-2"):
            status, _, _ = _get(server, path)
            assert status == 404
        deadline = time.monotonic() + 5.0
        while True:
            _, _, body = _get(server, "/metrics?format=prometheus")
            if (b'endpoint="other"' in body
                    or time.monotonic() > deadline):
                break
            time.sleep(0.02)
        text = body.decode()
        assert 'endpoint="other"' in text
        assert "attack" not in text


class TestAccessLogs:
    def test_requests_are_logged_with_status_and_duration(self, server,
                                                          caplog):
        with caplog.at_level(logging.DEBUG, logger="tybec.service.access"):
            _get(server, "/healthz")
            # the access event is emitted after the response is written;
            # wait for the handler thread's finally block to land
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                events = [r.getMessage() for r in caplog.records
                          if r.getMessage().startswith("request ")]
                if events:
                    break
                time.sleep(0.02)
        assert events, caplog.records
        line = events[0]
        assert "method=GET" in line
        assert "path=/healthz" in line
        assert "status=200" in line
        assert "duration_ms=" in line

    def test_stdlib_log_message_is_structured_not_dropped(self, server,
                                                          caplog):
        handler = ServiceServer.RequestHandlerClass = server.RequestHandlerClass
        with caplog.at_level(logging.DEBUG, logger="tybec.service.access"):
            _get(server, "/healthz")
        http_lines = [r for r in caplog.records
                      if r.getMessage().startswith("http ")]
        assert http_lines, "BaseHTTPRequestHandler logs were swallowed"
        assert handler.log_message is not None


class TestTracePropagation:
    def test_trace_header_stamps_response_and_events(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/suite", body=json.dumps(TINY_SPEC),
                         headers={"Content-Type": "application/json",
                                  TRACE_HEADER: "cafebabe"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader(TRACE_HEADER) == "cafebabe"
            events = [json.loads(line) for line in response.read().splitlines()
                      if line.strip()]
        finally:
            conn.close()
        assert events, "no NDJSON events streamed"
        assert all(event["trace"] == "cafebabe" for event in events)
        report = next(e for e in events if e["event"] == "report")
        # the trace id rides BESIDE the canonical payload, never inside it
        assert "trace" not in report["payload"]

    def test_untraced_request_streams_unstamped_events(self, server, client):
        response = client.suite(dict(TINY_SPEC))
        assert all("trace" not in entry for entry in response.entries)

    def test_client_propagates_active_trace(self, server, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "client.ndjson"))
        try:
            client = ServiceClient(port=server.port)
            response = client.suite(dict(TINY_SPEC))
        finally:
            uninstall_tracer()
        assert response.entries
        assert all(entry["trace"] == tracer.trace_id
                   for entry in response.entries)

    def test_traced_service_payload_matches_untraced_batch_run(self, server):
        from repro.suite import SuiteConfig, WorkloadSuite
        from repro.suite.report import canonical_json

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/suite", body=json.dumps(TINY_SPEC),
                         headers={"Content-Type": "application/json",
                                  TRACE_HEADER: "feedface"})
            response = conn.getresponse()
            events = [json.loads(line) for line in response.read().splitlines()
                      if line.strip()]
        finally:
            conn.close()
        payload = next(e for e in events if e["event"] == "report")["payload"]
        spec = {k: v for k, v in TINY_SPEC.items()}
        expected = WorkloadSuite(
            SuiteConfig.from_spec(spec)).run().report.to_json()
        assert canonical_json(payload) == expected
