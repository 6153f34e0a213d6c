"""Tests for the exploration service: coalescing, streaming, byte identity.

The acceptance bar: two concurrent identical grid requests produce
byte-identical canonical reports while ``/metrics`` shows exactly one
underlying sweep executed.  The coalescer's leader/follower handoff is
pinned deterministically with barriers; the HTTP layer is exercised
against a real :class:`ThreadingHTTPServer` on an ephemeral port.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    BadRequestError,
    CoalescedTask,
    ExplorationService,
    RequestCoalescer,
    ServiceClient,
    ServiceError,
    ServiceServer,
    TaskFailedError,
    suite_config_from_spec,
)
from repro.suite import SuiteConfig, WorkloadSuite
from repro.suite.report import canonical_json

TINY_SPEC = {"tiny": True, "kernels": ["sor"], "max_lanes": 2}


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
    """The canonical bytes a plain batch run writes for ``spec``."""
    config = suite_config_from_spec({k: v for k, v in spec.items()
                                     if k != "dense"})
    return WorkloadSuite(config).run().report.to_json()


# ----------------------------------------------------------------------
# the coalescer, deterministically
# ----------------------------------------------------------------------


class TestCoalescedTask:
    def test_follower_replays_and_then_streams_live(self):
        task = CoalescedTask("key")
        task.publish({"event": "entry", "index": 0})
        seen: list[dict] = []
        attached = threading.Event()

        def follow() -> None:
            for event in task.stream():
                seen.append(event)
                attached.set()

        thread = threading.Thread(target=follow)
        thread.start()
        assert attached.wait(5), "follower never saw the replayed event"
        task.publish({"event": "entry", "index": 1})
        task.finish({"event": "report"})
        thread.join(5)
        assert not thread.is_alive()
        assert [e["index"] for e in seen] == [0, 1]
        assert task.wait() == {"event": "report"}

    def test_failure_reaches_followers(self):
        task = CoalescedTask("key")
        task.publish({"event": "entry", "index": 0})
        task.fail(RuntimeError("sweep exploded"))
        events = []
        with pytest.raises(TaskFailedError, match="sweep exploded"):
            for event in task.stream():
                events.append(event)
        assert len(events) == 1
        with pytest.raises(TaskFailedError):
            task.wait()

    def test_replay_after_finish_is_complete(self):
        task = CoalescedTask("key")
        for index in range(3):
            task.publish({"index": index})
        task.finish({"event": "report"})
        assert [e["index"] for e in task.stream()] == [0, 1, 2]


class TestRequestCoalescer:
    def test_leader_follower_replay_roles(self):
        coalescer = RequestCoalescer()
        task, role = coalescer.lease("fp")
        assert role == "leader"
        same, role2 = coalescer.lease("fp")
        assert role2 == "follower"
        assert same is task
        assert coalescer.in_flight() == 1
        coalescer.complete(task, {"event": "report"})
        assert coalescer.in_flight() == 0
        cached, role3 = coalescer.lease("fp")
        assert role3 == "replay"
        assert cached.wait() == {"event": "report"}
        info = coalescer.info()
        assert info["joined"] == 1
        assert info["replayed"] == 1

    def test_distinct_keys_do_not_coalesce(self):
        coalescer = RequestCoalescer()
        _, role_a = coalescer.lease("a")
        _, role_b = coalescer.lease("b")
        assert (role_a, role_b) == ("leader", "leader")

    def test_abandoned_key_is_leasable_again(self):
        coalescer = RequestCoalescer()
        task, _ = coalescer.lease("fp")
        coalescer.abandon(task, RuntimeError("boom"))
        retry, role = coalescer.lease("fp")
        assert role == "leader"
        assert retry is not task

    def test_concurrent_leases_elect_exactly_one_leader(self):
        coalescer = RequestCoalescer()
        barrier = threading.Barrier(8)
        roles: list[str] = []
        lock = threading.Lock()

        def lease() -> None:
            barrier.wait()
            _, role = coalescer.lease("fp")
            with lock:
                roles.append(role)

        threads = [threading.Thread(target=lease) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert roles.count("leader") == 1
        assert roles.count("follower") == 7


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------


class TestSuiteConfigSpec:
    def test_tiny_spec_matches_config(self):
        config = suite_config_from_spec(dict(TINY_SPEC))
        expected = SuiteConfig.tiny(kernels=("sor",), max_lanes=2)
        assert config == expected

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequestError, match="unknown suite field"):
            suite_config_from_spec({"kernles": ["sor"]})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BadRequestError, match="unknown kernels"):
            suite_config_from_spec({"kernels": ["definitely-not-a-kernel"]})

    def test_unknown_device_rejected(self):
        with pytest.raises(BadRequestError):
            suite_config_from_spec({"devices": ["not-an-fpga"]})

    def test_lists_become_tuples(self):
        config = suite_config_from_spec(
            {"kernels": ["sor"], "lanes": [1, 2], "grids": {"sor": [8, 8, 8]}})
        assert config.lanes == (1, 2)
        assert config.grids["sor"] == (8, 8, 8)


# ----------------------------------------------------------------------
# the service over HTTP
# ----------------------------------------------------------------------


class TestServiceHTTP:
    def test_health(self, client):
        assert client.health()["ok"] is True

    def test_suite_streams_entries_then_report(self, client):
        streamed: list[dict] = []
        response = client.suite(dict(TINY_SPEC), on_entry=streamed.append)
        assert response.role == "leader"
        totals = response.payload["totals"]
        assert totals["points"] == len(streamed) == len(response.entries)
        assert [e["index"] for e in streamed] == list(range(totals["points"]))
        # every streamed entry appears verbatim in the final report
        report_entries = response.payload["kernels"]["sor"]["entries"]
        assert [e["point"] for e in streamed] == \
            [e["point"] for e in report_entries]

    def test_concurrent_identical_requests_one_sweep(self, server, client):
        """The acceptance criterion: N identical concurrent requests →
        byte-identical reports, exactly one underlying sweep."""
        before = client.metrics()["sweeps"]["started"]
        barrier = threading.Barrier(3)
        results: list = []
        lock = threading.Lock()

        def request() -> None:
            barrier.wait()
            response = ServiceClient(port=server.port).suite(dict(TINY_SPEC))
            with lock:
                results.append(response)

        threads = [threading.Thread(target=request) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert len(results) == 3
        texts = {canonical_json(r.payload) for r in results}
        assert len(texts) == 1, "concurrent clients saw different reports"
        assert texts.pop() == batch_report_json(TINY_SPEC)
        metrics = client.metrics()
        assert metrics["sweeps"]["started"] - before == 1
        assert sum(1 for r in results if r.coalesced) == 2
        assert metrics["coalesce"]["joined"] + metrics["coalesce"]["replayed"] >= 2

    def test_dense_and_serial_reports_are_byte_identical(self, client):
        serial = client.suite(dict(TINY_SPEC))
        dense = client.suite({**TINY_SPEC, "dense": True})
        assert canonical_json(serial.payload) == canonical_json(dense.payload)

    def test_cost_roundtrip_and_coalescing(self, client):
        from repro.ir import print_module

        from tests.conftest import build_stencil_module

        text = print_module(build_stencil_module(lanes=1, grid=(8, 8, 8)))
        first = client.cost(text, grid=(8, 8, 8), iterations=10)
        second = client.cost(text, grid=(8, 8, 8), iterations=10)
        assert first.role == "leader"
        assert second.role == "replay"
        assert first.fingerprint == second.fingerprint
        assert first.payload == second.payload
        assert first.payload["feasibility"]["feasible"] is True
        # a different workload is different work: no coalescing
        other = client.cost(text, grid=(8, 8, 8), iterations=20)
        assert other.fingerprint != first.fingerprint

    def test_bad_requests_are_400(self, client):
        with pytest.raises(ServiceError, match="unknown kernels"):
            client.suite({"kernels": ["nope"]})
        with pytest.raises(ServiceError, match="design"):
            client._json("POST", "/cost", {"not-design": 1})
        with pytest.raises(ServiceError, match="no such endpoint"):
            client._json("POST", "/nowhere", {})

    @pytest.mark.parametrize("body", [{"grids": ["A"]}, {"kernels": [[1]]}])
    def test_ill_typed_suite_fields_are_400(self, server, body):
        # the field coercion itself fails on these: answered, not dropped
        import http.client
        import json

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/suite", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_metrics_shape(self, client):
        client.suite(dict(TINY_SPEC))
        metrics = client.metrics()
        assert metrics["queue"]["capacity"] == 2
        assert metrics["queue"]["depth"] >= 0
        assert metrics["sweeps"]["completed"] >= 1
        assert "results_cache" in metrics["coalesce"]
        stats = metrics["pipeline"]
        assert "stage_seconds" in stats
        assert stats["variant"][0] + stats["variant"][1] > 0


class TestServiceDirect:
    """The service object without sockets: leader streaming semantics."""

    def test_run_suite_report_matches_batch(self):
        service = ExplorationService()
        task, role, request = service.lease_suite(dict(TINY_SPEC))
        assert role == "leader"
        events: list[dict] = []
        result = service.run_suite(request, events.append)
        service.coalescer.complete(task, result)
        assert canonical_json(result["payload"]) == batch_report_json(TINY_SPEC)
        assert len(events) == result["evaluated"]
        assert service.sweeps == {"started": 1, "completed": 1}

    def test_inflight_follower_streams_leader_progress(self):
        """A follower attached mid-sweep sees every entry the leader
        publishes — the live-coalescing path, pinned with an event."""
        service = ExplorationService()
        task, role, request = service.lease_suite(dict(TINY_SPEC))
        assert role == "leader"
        first_entry = threading.Event()
        follower_events: list[dict] = []
        follower_done = threading.Event()

        def follow() -> None:
            first_entry.wait(60)
            joined, follower_role = service.coalescer.lease(task.key)
            assert follower_role in ("follower", "replay")
            for event in joined.stream():
                follower_events.append(event)
            follower_done.set()

        thread = threading.Thread(target=follow)
        thread.start()

        def publish(event: dict) -> None:
            task.publish(event)
            first_entry.set()

        result = service.run_suite(request, publish)
        service.coalescer.complete(task, result)
        assert follower_done.wait(60)
        thread.join(5)
        assert len(follower_events) == result["evaluated"]
        assert service.sweeps["started"] == 1
