"""Resilience tests for the exploration service.

Leader promotion (a dead leader must not strand its followers), request
deadlines, graceful drain on shutdown, and client connect retries — all
driven against a real :class:`ThreadingHTTPServer` on an ephemeral port,
with faults injected deterministically through :class:`FaultPlan`.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.resilience import COUNTERS, FaultPlan, RetryPolicy
from repro.service import (
    CoalescedTask,
    ExplorationService,
    RequestCoalescer,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.suite import SuiteConfig, WorkloadSuite
from repro.suite.report import canonical_json_line

TINY_SPEC = {"tiny": True, "kernels": ["sor"], "max_lanes": 2}


def encode(event: dict) -> bytes:
    """An event as the coalescer's log stores it: its canonical line."""
    return canonical_json_line(event).encode()


@pytest.fixture
def server():
    srv = ServiceServer(("127.0.0.1", 0), ExplorationService(max_concurrency=2))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


def batch_report_json(spec: dict) -> str:
    config = SuiteConfig.from_spec({k: v for k, v in spec.items()
                                    if k not in ("dense", "deadline_seconds")})
    return WorkloadSuite(config).run().report.to_json()


# ----------------------------------------------------------------------
# leadership promotion, deterministically (no sockets)
# ----------------------------------------------------------------------


class TestLeaderPromotion:
    def test_leader_failed_offers_leadership_then_exhausts(self):
        task = CoalescedTask("fp")
        for claim in range(task.MAX_LEADER_CLAIMS - 1):
            assert task.leader_failed(RuntimeError(f"death #{claim}"))
            assert not task.done
            assert task.claim_leadership()
        # the claim budget is now spent: the next failure is final
        assert not task.leader_failed(RuntimeError("last death"))
        assert task.done
        assert task.error_message == "last death"

    def test_publish_dedups_the_republished_prefix(self):
        task = CoalescedTask("fp")
        lines = [encode({"event": "entry", "index": i}) for i in range(3)]
        assert task.publish(lines[0])
        assert task.publish(lines[1])
        assert task.leader_failed(RuntimeError("died mid-sweep"))
        assert task.claim_leadership()
        # the promoted leader recomputes from scratch; the deterministic
        # prefix it regenerates is skipped, the rest appends
        assert not task.publish(lines[0])
        assert not task.publish(lines[1])
        assert task.publish(lines[2])
        batch, state = task.next_events(0)
        assert batch == lines
        assert state == "running"

    def test_next_events_drains_before_reporting_leader_lost(self):
        task = CoalescedTask("fp")
        task.publish(encode({"event": "entry", "index": 0}))
        task.leader_failed(RuntimeError("boom"))
        batch, state = task.next_events(0)
        assert state == "running" and len(batch) == 1
        batch, state = task.next_events(1)
        assert state == "leader_lost" and batch == []

    def test_claim_is_exclusive(self):
        task = CoalescedTask("fp")
        task.leader_failed(RuntimeError("boom"))
        assert task.claim_leadership()
        assert not task.claim_leadership()   # nothing left to claim

    def test_abandon_with_promote_keeps_the_task_in_flight(self):
        coalescer = RequestCoalescer()
        task, role = coalescer.lease("fp")
        assert role == "leader"
        assert coalescer.abandon(task, RuntimeError("transient"), promote=True)
        assert coalescer.in_flight() == 1
        _, role = coalescer.lease("fp")
        assert role == "follower"   # joiners attach, nobody restarts
        assert coalescer.info()["leaders_lost"] == 1

    def test_abandon_without_promote_still_fails_hard(self):
        coalescer = RequestCoalescer()
        task, _ = coalescer.lease("fp")
        assert not coalescer.abandon(task, RuntimeError("fatal"))
        assert coalescer.in_flight() == 0
        assert task.done


# ----------------------------------------------------------------------
# over HTTP, with injected faults
# ----------------------------------------------------------------------


class TestServiceChaos:
    def test_injected_handler_fault_is_retried_transparently(self, client):
        """The leader dies at compute start; the same connection demotes
        itself, re-claims the leadership and recomputes — the client sees
        a complete, byte-identical report, not an error."""
        golden = batch_report_json(TINY_SPEC)
        plan = FaultPlan({"service.handler": {"indices": [0]}})
        with plan.active():
            response = client.suite(dict(TINY_SPEC))
        from repro.suite.report import canonical_json
        assert canonical_json(response.payload) == golden
        assert plan.stats()["sites"]["service.handler"]["injected"] == 1
        metrics = client.metrics()
        assert metrics["coalesce"]["leaders_lost"] >= 1
        resilience = metrics["resilience"]["counters"]
        assert resilience.get("service.leaders_promoted", 0) >= 1

    def test_follower_survives_leader_death(self, server):
        """A dying leader with an attached follower: someone gets promoted
        and *every* client still receives the full byte-identical report."""
        golden = batch_report_json(TINY_SPEC)
        plan = FaultPlan({"service.handler": {"indices": [0]}})
        barrier = threading.Barrier(2)
        results, errors = [], []
        lock = threading.Lock()

        def request() -> None:
            try:
                barrier.wait()
                response = ServiceClient(port=server.port).suite(dict(TINY_SPEC))
                with lock:
                    results.append(response)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(exc)

        with plan.active():
            threads = [threading.Thread(target=request) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        from repro.suite.report import canonical_json
        assert not errors
        assert len(results) == 2
        for response in results:
            assert canonical_json(response.payload) == golden

    def test_exhausted_claim_budget_reports_an_error(self, client):
        """Every leadership claim dies: clients get the error, and the
        key is leasable again afterwards (the next request recovers)."""
        failures = list(range(CoalescedTask.MAX_LEADER_CLAIMS))
        plan = FaultPlan({"service.handler": {"indices": failures}})
        with plan.active():
            with pytest.raises(ServiceError, match="injected fault"):
                client.suite(dict(TINY_SPEC))
        # the poisoned key did not stick: a clean retry succeeds
        response = client.suite(dict(TINY_SPEC))
        assert response.payload["totals"]["points"] > 0

    def test_metrics_exposes_resilience_counters(self, client):
        payload = client.metrics()
        assert "resilience" in payload
        assert isinstance(payload["resilience"]["counters"], dict)
        assert payload["coalesce"]["leaders_lost"] >= 0


class TestRequestDeadlines:
    def test_microscopic_deadline_fails_cleanly(self, client):
        spec = dict(TINY_SPEC, deadline_seconds=1e-9)
        with pytest.raises(ServiceError, match="deadline exceeded"):
            client.suite(spec)

    def test_deadline_does_not_change_the_fingerprint(self, client):
        """Different budgets, same work: the requests must coalesce."""
        first = client.suite(dict(TINY_SPEC, deadline_seconds=3600))
        second = client.suite(dict(TINY_SPEC))
        assert first.fingerprint == second.fingerprint
        assert second.role == "replay"

    def test_generous_deadline_completes_normally(self, client):
        golden = batch_report_json(TINY_SPEC)
        from repro.suite.report import canonical_json
        response = client.suite(dict(TINY_SPEC, deadline_seconds=3600))
        assert canonical_json(response.payload) == golden


class TestGracefulDrain:
    def test_shutdown_drains_inflight_requests(self, server):
        """SIGTERM semantics: stop accepting, finish what's streaming.

        Deterministic setup: the test itself holds the leadership for the
        tiny sweep, so the client's request is pinned in flight (a
        follower blocked on the stream) for as long as the test wants —
        no racing against a millisecond-fast warm sweep.
        """
        service = server.service
        task, role, request = service.lease_suite(dict(TINY_SPEC))
        assert role == "leader"
        results = []

        def follow() -> None:
            results.append(ServiceClient(port=server.port).suite(dict(TINY_SPEC)))

        follower = threading.Thread(target=follow)
        follower.start()
        deadline = time.monotonic() + 30
        while server.inflight_requests() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight_requests() > 0

        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.shutdown_gracefully(120)))
        drainer.start()
        time.sleep(0.05)
        assert not drained, "drain must wait for the in-flight follower"

        # the "leader" finishes its sweep; the follower streams and exits
        result = service.run_suite(
            request, lambda event: task.publish(encode(event)))
        service.coalescer.complete(task, encode(result))
        drainer.join(120)
        follower.join(10)
        assert drained == [True]
        assert results and results[0].payload["totals"]["points"] > 0

    def test_drain_with_nothing_in_flight_returns_immediately(self, server):
        assert server.drain(timeout=1.0)

    def test_track_request_counts(self, server):
        assert server.inflight_requests() == 0
        with server.track_request():
            assert server.inflight_requests() == 1
        assert server.inflight_requests() == 0


class TestClientConnectRetry:
    def test_connect_errors_retry_then_reraise(self):
        """A refused port is retried with backoff, then the underlying
        ConnectionError (not a wrapper) surfaces for the CLI to catch."""
        COUNTERS.reset()
        # bind-and-close to get a port nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            port=dead_port,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                     max_delay=0.02))
        with pytest.raises(ConnectionError):
            client.health()
        assert COUNTERS.get("retries.client.connect") == 2

    def test_retry_recovers_once_the_daemon_is_up(self, server):
        """First attempt refused, daemon comes up, retry succeeds."""
        client = ServiceClient(
            port=server.port,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01))
        assert client.health()["ok"] is True

    def test_response_phase_disconnect_is_not_resent(self):
        """A server that reads the request and hangs up unanswered: the
        request went out, so the client raises at once, never resends."""
        COUNTERS.reset()
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        requests: list[bytes] = []
        stop = threading.Event()

        def read_one_request_and_close() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                with conn:
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += conn.recv(4096)
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length:")[1]
                                 .split(b"\r\n")[0])
                    while len(body) < length:
                        body += conn.recv(4096)
                    requests.append(body)

        thread = threading.Thread(target=read_one_request_and_close)
        thread.start()
        try:
            client = ServiceClient(
                port=listener.getsockname()[1],
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                         max_delay=0.02))
            with pytest.raises(ConnectionError):
                client.suite(dict(TINY_SPEC))
        finally:
            stop.set()
            thread.join(5)
            listener.close()
        assert not thread.is_alive()
        assert [json.loads(body) for body in requests] == [TINY_SPEC]
        assert COUNTERS.get("retries.client.connect") == 0
