"""Tests for the exploration service: coalescing, streaming, byte identity.

The acceptance bar: two concurrent identical grid requests produce
byte-identical canonical reports while ``/metrics`` shows exactly one
underlying sweep executed.  The coalescer's leader/follower handoff is
pinned deterministically with barriers; the HTTP layer is exercised
against a real :class:`ThreadingHTTPServer` on an ephemeral port.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.engine import SerialBackend, SweepEntry, SweepResult
from repro.explore.space import build_jobs
from repro.service import (
    BadRequestError,
    CoalescedTask,
    ExplorationService,
    RequestCoalescer,
    ServiceClient,
    ServiceError,
    ServiceServer,
    TaskFailedError,
)
from repro.service.server import TRACE_HEADER
from repro.suite import SuiteConfig, WorkloadSuite
from repro.suite.report import canonical_json, canonical_json_line, canonicalize
from repro.suite.runner import build_suite_report
from tests.conftest import FAST_POLL

TINY_SPEC = {"tiny": True, "kernels": ["sor"], "max_lanes": 2}


def encode(event: dict) -> bytes:
    """An event as the coalescer's log stores it: its canonical line."""
    return canonical_json_line(event).encode()


@contextmanager
def running_server():
    srv = ServiceServer(("127.0.0.1", 0), ExplorationService(max_concurrency=2))
    thread = threading.Thread(target=srv.serve_forever, kwargs=FAST_POLL,
                              daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def server():
    with running_server() as srv:
        yield srv


@pytest.fixture(scope="module")
def refusing_server():
    """One server shared by the tests whose every body is refused: a
    refusal leaves no task, sweep or cache entry behind."""
    with running_server() as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


def batch_report_json(spec: dict) -> str:
    """The canonical bytes a plain batch run writes for ``spec``."""
    config = SuiteConfig.from_spec({k: v for k, v in spec.items()
                                    if k != "dense"})
    return WorkloadSuite(config).run().report.to_json()


def raw_post(port: int, path: str, body: dict,
             headers: dict | None = None) -> tuple[int, list[bytes]]:
    """POST over a plain socket; return the status and the body's chunks
    exactly as the server framed them."""
    payload = json.dumps(body).encode()
    lines = [f"POST {path} HTTP/1.1", f"Host: 127.0.0.1:{port}",
             "Connection: close", "Content-Type: application/json",
             f"Content-Length: {len(payload)}"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    received = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
                     + payload)
        while data := sock.recv(1 << 16):
            received.append(data)
    head, _, rest = b"".join(received).partition(b"\r\n\r\n")
    status = int(head.split()[1])
    chunks = []
    while True:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            return status, chunks
        chunks.append(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]


def ndjson_lines(chunks: list[bytes]) -> list[bytes]:
    return b"".join(chunks).splitlines(keepends=True)


def assert_refused_before_lease(server, path: str, body: dict, field: str) -> None:
    """``body`` gets an HTTP 400 naming ``field`` in plain words, and no
    task was leased or sweep started for it."""
    import http.client

    before = server.service.metrics()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        error = json.loads(response.read())["error"]
    finally:
        conn.close()
    assert field in error
    for raw in ("could not convert", "has no attribute", "not supported between"):
        assert raw not in error
    after = server.service.metrics()
    assert after["sweeps"] == before["sweeps"]
    assert after["coalesce"]["in_flight"] == 0


# ----------------------------------------------------------------------
# the coalescer, deterministically
# ----------------------------------------------------------------------


class TestCoalescedTask:
    def test_follower_replays_and_then_streams_live(self):
        task = CoalescedTask("key")
        task.publish(encode({"event": "entry", "index": 0}))
        seen: list[bytes] = []
        attached = threading.Event()

        def follow() -> None:
            for line in task.stream():
                seen.append(line)
                attached.set()

        thread = threading.Thread(target=follow)
        thread.start()
        assert attached.wait(5), "follower never saw the replayed event"
        task.publish(encode({"event": "entry", "index": 1}))
        task.finish(encode({"event": "report"}))
        thread.join(5)
        assert not thread.is_alive()
        assert [json.loads(line)["index"] for line in seen] == [0, 1]
        assert task.wait() == encode({"event": "report"})

    def test_failure_reaches_followers(self):
        task = CoalescedTask("key")
        task.publish(encode({"event": "entry", "index": 0}))
        task.fail(RuntimeError("sweep exploded"))
        lines = []
        with pytest.raises(TaskFailedError, match="sweep exploded"):
            for line in task.stream():
                lines.append(line)
        assert len(lines) == 1
        with pytest.raises(TaskFailedError):
            task.wait()

    def test_replay_after_finish_is_complete(self):
        task = CoalescedTask("key")
        for index in range(3):
            task.publish(encode({"index": index}))
        task.finish(encode({"event": "report"}))
        assert [json.loads(line)["index"] for line in task.stream()] == [0, 1, 2]

    def test_finished_task_hands_back_its_whole_log_at_once(self):
        task = CoalescedTask("key")
        lines = [encode({"index": index}) for index in range(3)]
        for line in lines:
            task.publish(line)
        task.finish(encode({"event": "report"}))
        assert task.next_events(0) == (lines, "done")
        assert task.next_events(1) == (lines[1:], "done")


class TestRequestCoalescer:
    def test_leader_follower_replay_roles(self):
        coalescer = RequestCoalescer()
        task, role = coalescer.lease("fp")
        assert role == "leader"
        same, role2 = coalescer.lease("fp")
        assert role2 == "follower"
        assert same is task
        assert coalescer.in_flight() == 1
        coalescer.complete(task, encode({"event": "report"}))
        assert coalescer.in_flight() == 0
        cached, role3 = coalescer.lease("fp")
        assert role3 == "replay"
        assert cached.wait() == encode({"event": "report"})
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
        config = SuiteConfig.from_spec(dict(TINY_SPEC))
        expected = SuiteConfig.tiny(kernels=("sor",), max_lanes=2)
        assert config == expected

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown suite field"):
            SuiteConfig.from_spec({"kernles": ["sor"]})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            SuiteConfig.from_spec({"kernels": ["definitely-not-a-kernel"]})

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown devices"):
            SuiteConfig.from_spec({"devices": ["not-an-fpga"]})

    def test_lists_become_tuples(self):
        config = SuiteConfig.from_spec(
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

    def test_dense_flag_replays_the_same_config(self, server):
        # "dense" is accepted but selects nothing: the same config with it
        # set is the same work, served from the first request's lines
        roles, bodies = [], []
        for dense in (False, True):
            status, chunks = raw_post(server.port, "/suite",
                                      {**TINY_SPEC, "dense": dense})
            assert status == 200
            meta, *lines = ndjson_lines(chunks)
            roles.append(json.loads(meta)["role"])
            bodies.append(lines)
        assert roles == ["leader", "replay"]
        assert bodies[1] == bodies[0]
        assert server.service.sweeps.get("started") == 1

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

    @pytest.mark.parametrize("body", [
        {"grids": ["A"]},
        {"kernels": [[1]]},
        {"tiny": True, "lanes": [[1]]},
        {"tiny": True, "lanes": [True]},
        {"tiny": True, "clocks_mhz": ["x"]},
        {"tiny": True, "forms": [[1]]},
        {"tiny": True, "patterns": ["zigzag"]},
        # each of these used to lease a task and then fail mid-run
        {"tiny": True, "deadline_seconds": "x"},
        {"tiny": True, "deadline_seconds": [1]},
        {"tiny": True, "deadline_seconds": -1},
        {"tiny": True, "iterations": "x"},
        {"tiny": True, "iterations": -3},
        {"tiny": True, "clocks_mhz": [-5]},
        {"tiny": True, "lanes": [0]},
        {"tiny": True, "max_lanes": "x"},
        {"tiny": True, "max_lanes": 0},
        # and these used to run a different request than the one sent
        {"tiny": "yes"},
        {"tiny": True, "grids": {"nbody": [8, 8, 8]}},
        {"tiny": True, "kernels": "sor"},
        {"tiny": True, "dense": "yes"},
    ])
    def test_ill_typed_suite_fields_are_400(self, refusing_server, body):
        # the field at fault is the body's last one
        assert_refused_before_lease(refusing_server, "/suite", body,
                                    field=[*body][-1])

    @pytest.mark.parametrize("body, field", [
        ({"tiny": True, "deadline_seconds": "x"}, "deadline_seconds"),
        ({"tiny": True, "params": {"resolution": 0}}, "resolution"),
        ({"tiny": True, "params": {"resolution": True}}, "resolution"),
        ({"tiny": True, "optimizer": "surrogate", "params": {"keep_min": 2.7}},
         "keep_min"),
        # removed optimizers and their knobs name what is accepted
        ({"tiny": True, "optimizer": "halving"},
         "expected one of exhaustive, fmax, surrogate"),
        ({"tiny": True, "params": {"budget": 2}},
         "accepted: ['probes_per_round', 'resolution']"),
        ({"tiny": True, "params": [1]}, "params"),
        ({"tiny": True, "optimizer": "annealing"}, "optimizer"),
        ({"tiny": True, "iterations": "x"}, "iterations"),
        ({"tiny": True, "dense": True}, "dense"),
    ])
    def test_ill_typed_dse_fields_are_400(self, refusing_server, body, field):
        assert_refused_before_lease(refusing_server, "/dse", body, field=field)

    @pytest.mark.parametrize("fields", [
        {"iterations": "x"},
        {"iterations": 0},
        {"iterations": None},
        {"grid": [-1, 0, 8]},
        {"grid": "A"},
        {"grid": 5},
        # each of these used to be costed as a different request
        {"grid": [24.9, 24, 24]},
        {"iterations": 1.7},
        {"iterations": True},
        {"deadline_seconds": "x"},
        {"device": 5},
        {"pattern": ["contiguous"]},
        {"name": 5},
    ])
    def test_ill_typed_cost_fields_are_400(self, refusing_server, fields):
        from repro.ir import print_module
        from tests.conftest import build_stencil_module

        body = {"design": print_module(build_stencil_module(lanes=1, grid=(8, 8, 8))),
                **fields}
        assert_refused_before_lease(refusing_server, "/cost", body,
                                    field=[*fields][0])

    def test_unexpected_handler_failure_is_a_json_500(self, server, monkeypatch):
        import http.client

        from repro.resilience import COUNTERS

        def broken(spec):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(server.service, "lease_suite", broken)
        errors = server.service.requests.get("errors")
        internal = COUNTERS.snapshot().get("service.internal_errors", 0)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/suite", body=json.dumps(TINY_SPEC),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 500
            assert "RuntimeError" in json.loads(response.read())["error"]
        finally:
            conn.close()
        metrics = server.service.metrics()
        assert metrics["coalesce"]["in_flight"] == 0
        assert metrics["requests"]["errors"] == errors + 1
        assert COUNTERS.snapshot()["service.internal_errors"] == internal + 1

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


#: any JSON value a client could send
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 1 << 40)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)

#: every request field of the three endpoints, plus optimizer knobs
_FUZZ_FIELDS = ["tiny", "dense", "deadline_seconds", "kernels", "devices",
                "lanes", "max_lanes", "forms", "patterns", "clocks_mhz",
                "grids", "iterations", "optimizer", "params", "design",
                "device", "pattern", "name", "grid"]
_fuzz_values = _json_values | st.dictionaries(
    st.sampled_from(["resolution", "probes_per_round", "budget", "eta",
                     "rung_points", "keep_fraction", "keep_min"]),
    _json_values, max_size=2)


#: the edit that drops a field instead of setting it
_DROP = object()


@pytest.fixture(scope="module")
def fuzz_service():
    return ExplorationService()


@pytest.fixture(scope="module")
def fuzz_bases():
    """One valid body per endpoint, for the fuzzer to mutate."""
    from repro.ir import print_module
    from tests.conftest import build_stencil_module

    design = print_module(build_stencil_module(lanes=1, grid=(8, 8, 8)))
    return {"cost": {"design": design, "grid": [8, 8, 8], "iterations": 10},
            "dse": {**TINY_SPEC, "optimizer": "fmax",
                    "params": {"resolution": 2.0}},
            "suite": {**TINY_SPEC, "dense": False}}


class TestRequestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(endpoint=st.sampled_from(["suite", "dse", "cost"]),
           edits=st.lists(st.tuples(
               st.sampled_from(_FUZZ_FIELDS) | st.text(max_size=6),
               st.just(_DROP) | _fuzz_values), max_size=3))
    def test_a_mutated_body_leases_or_is_a_bad_request(
            self, fuzz_service, fuzz_bases, endpoint, edits):
        body = dict(fuzz_bases[endpoint])
        for field, value in edits:
            if value is _DROP:
                body.pop(field, None)
            else:
                body[field] = value
        lease = getattr(fuzz_service, f"lease_{endpoint}")
        try:
            task, role, _ = lease(body)
        except BadRequestError:
            pass
        else:
            assert role == "leader"
            fuzz_service.coalescer.abandon(task, "fuzzed body released")
        assert fuzz_service.coalescer.info()["in_flight"] == 0


class TestServiceDirect:
    """The service object without sockets: leader streaming semantics."""

    def test_run_suite_report_matches_batch(self):
        service = ExplorationService()
        task, role, request = service.lease_suite(dict(TINY_SPEC))
        assert role == "leader"
        events: list[dict] = []
        result = service.run_suite(request, events.append)
        service.coalescer.complete(task, encode(result))
        assert canonical_json(result["payload"]) == batch_report_json(TINY_SPEC)
        assert len(events) == result["evaluated"]
        assert service.sweeps.snapshot() == {"completed": 1, "started": 1}

    def test_inflight_follower_streams_leader_progress(self):
        """A follower attached mid-sweep sees every entry the leader
        publishes — the live-coalescing path, pinned with an event."""
        service = ExplorationService()
        task, role, request = service.lease_suite(dict(TINY_SPEC))
        assert role == "leader"
        first_entry = threading.Event()
        follower_lines: list[bytes] = []
        follower_done = threading.Event()

        def follow() -> None:
            first_entry.wait(60)
            joined, follower_role = service.coalescer.lease(task.key)
            assert follower_role in ("follower", "replay")
            for line in joined.stream():
                follower_lines.append(line)
            follower_done.set()

        thread = threading.Thread(target=follow)
        thread.start()
        leader_lines: list[bytes] = []

        def publish(event: dict) -> None:
            leader_lines.append(encode(event))
            task.publish(leader_lines[-1])
            first_entry.set()

        result = service.run_suite(request, publish)
        service.coalescer.complete(task, encode(result))
        assert follower_done.wait(60)
        thread.join(5)
        assert len(follower_lines) == result["evaluated"]
        assert follower_lines == leader_lines
        assert service.sweeps.get("started") == 1


class TestStoredBytes:
    """Replays and followers write the leader's stored canonical lines;
    every body is checked byte for byte, over real sockets."""

    #: a trace id that needs JSON escaping (quote, backslash, non-ASCII)
    TRACE = 'req-"7"\\\xe9'

    def test_replay_writes_the_leaders_bytes_in_one_chunk(self, server):
        status, leader = raw_post(server.port, "/suite", TINY_SPEC)
        assert status == 200
        status, replay = raw_post(server.port, "/suite", TINY_SPEC)
        assert status == 200
        assert json.loads(leader[0])["role"] == "leader"
        assert json.loads(replay[0])["role"] == "replay"
        assert b"".join(replay[1:]) == b"".join(leader[1:])
        # the leader streams one chunk per event; the replay writes the
        # whole stored log plus the report as one chunk after its meta line
        assert all(chunk.count(b"\n") == 1 for chunk in leader)
        assert len(replay) == 2
        report = json.loads(ndjson_lines(replay)[-1])
        assert canonical_json(report["payload"]) == batch_report_json(TINY_SPEC)

    def test_follower_attached_mid_sweep_gets_the_same_bytes(self, server):
        service = server.service
        run_suite = service.run_suite
        first_entry, release = threading.Event(), threading.Event()

        def gated_run_suite(request, publish):
            def gated(event):
                publish(event)
                first_entry.set()
                release.wait(60)    # the leader holds after its first entry
            return run_suite(request, gated)

        service.run_suite = gated_run_suite
        bodies: dict[str, list[bytes]] = {}

        def post(name: str) -> None:
            bodies[name] = raw_post(server.port, "/suite", TINY_SPEC)[1]

        leader = threading.Thread(target=post, args=("leader",))
        leader.start()
        try:
            assert first_entry.wait(60)
            follower = threading.Thread(target=post, args=("follower",))
            follower.start()
            while service.coalescer.info()["joined"] == 0:
                assert follower.is_alive()
                follower.join(0.005)
        finally:
            release.set()
        leader.join(60)
        follower.join(60)
        assert not leader.is_alive() and not follower.is_alive()
        assert json.loads(bodies["leader"][0])["role"] == "leader"
        assert json.loads(bodies["follower"][0])["role"] == "follower"
        assert b"".join(bodies["follower"][1:]) == b"".join(bodies["leader"][1:])
        assert service.sweeps.get("started") == 1

    def _traced_lines(self, port: int, body: dict) -> list[bytes]:
        status, chunks = raw_post(port, "/suite", body,
                                  {TRACE_HEADER: self.TRACE})
        assert status == 200
        lines = ndjson_lines(chunks)
        for line in lines:
            event = json.loads(line)
            assert event.pop("trace") == self.TRACE
            # stamping a stored line == encoding the event with the key
            assert line == encode({**event, "trace": self.TRACE})
        return lines

    def test_traced_lines_equal_encoding_with_the_trace_key(self, server):
        leader = self._traced_lines(server.port, TINY_SPEC)
        replay = self._traced_lines(server.port, TINY_SPEC)
        # a budget is not fingerprinted: other work, or this would replay
        failed = self._traced_lines(server.port, dict(
            TINY_SPEC, max_lanes=1, deadline_seconds=1e-9))
        assert replay[1:] == leader[1:]
        kinds = {json.loads(line)["event"] for line in leader + failed}
        assert kinds == {"meta", "entry", "report", "error"}
        # the stamp is all that differs from an untraced stream
        status, untraced = raw_post(server.port, "/suite", TINY_SPEC)
        assert status == 200
        unstamped = [encode({k: v for k, v in json.loads(line).items()
                             if k != "trace"}) for line in replay[1:]]
        assert unstamped == ndjson_lines(untraced)[1:]


def reference_lines(spec: dict) -> list[bytes]:
    """The entry and report lines of a ``/suite`` stream for ``spec``, each
    the one stdlib dump of the fully expanded event (no row encoder)."""
    run = WorkloadSuite(SuiteConfig.from_spec(
        {k: v for k, v in spec.items() if k != "dense"})).run()
    events = [{"event": "entry", "index": index, **entry.as_dict()}
              for index, entry in enumerate(run.sweep.entries)]
    events.append({"event": "report", "kind": "suite",
                   "payload": run.report.payload, "evaluated": run.evaluated})
    return [(json.dumps(canonicalize(event), sort_keys=True,
                        separators=(",", ":")) + "\n").encode()
            for event in events]


class TestSharedRowTexts:
    """The leader's report line takes its rows from its entry lines; every
    client still gets the reference bytes, serial and dense."""

    TRACE = TestStoredBytes.TRACE

    def stamped(self, lines: list[bytes]) -> list[bytes]:
        tail = b',"trace":' + json.dumps(self.TRACE).encode() + b"}\n"
        return [line[:-2] + tail for line in lines]

    @pytest.mark.parametrize("dense", [False, True])
    def test_leader_follower_replay_and_traced_lines(self, server, dense):
        spec = {**TINY_SPEC, "dense": dense}
        service = server.service
        run_suite = service.run_suite
        first_entry, release = threading.Event(), threading.Event()

        def gated_run_suite(request, publish):
            def gated(event):
                publish(event)
                first_entry.set()
                release.wait(60)    # the leader holds after its first entry
            return run_suite(request, gated)

        service.run_suite = gated_run_suite
        bodies: dict[str, list[bytes]] = {}

        def post(name: str, headers=None) -> None:
            status, chunks = raw_post(server.port, "/suite", spec, headers)
            assert status == 200
            bodies[name] = ndjson_lines(chunks)

        # the leader sends a trace id: its stream is stamped, the stored
        # lines its follower and replays get are not
        leader = threading.Thread(target=post, args=(
            "leader", {TRACE_HEADER: self.TRACE}))
        leader.start()
        try:
            assert first_entry.wait(60)
            follower = threading.Thread(target=post, args=("follower",))
            follower.start()
            while service.coalescer.info()["joined"] == 0:
                assert follower.is_alive()
                follower.join(0.005)
        finally:
            release.set()
        leader.join(60)
        follower.join(60)
        post("replay")
        post("traced replay", {TRACE_HEADER: self.TRACE})

        expected = reference_lines(spec)
        for name, stamp in (("leader", True), ("follower", False),
                            ("replay", False), ("traced replay", True)):
            meta, *lines = bodies[name]
            assert json.loads(meta)["role"] == name.split()[-1]
            assert lines == (self.stamped(expected) if stamp else expected), name
        assert service.sweeps.get("started") == 1


def batch_reference_lines(spec: dict) -> list[bytes]:
    """The reference ``/suite`` lines of ``spec`` with every point costed
    as one job batch (``SerialBackend.run``, one pipeline ``cost`` per
    point), not through the backends' whole-space path."""
    config = SuiteConfig.from_spec({k: v for k, v in spec.items() if k != "dense"})
    spaces = WorkloadSuite(config).spaces()
    backend = SerialBackend()
    entries = []
    for space in spaces.values():
        jobs = build_jobs(space)
        entries += [SweepEntry(job.point, report)
                    for job, report in zip(jobs, backend.run(jobs))]
    report = build_suite_report(config, spaces, SweepResult(entries=entries))
    events = [{"event": "entry", "index": index, **entry.as_dict()}
              for index, entry in enumerate(entries)]
    events.append({"event": "report", "kind": "suite",
                   "payload": report.payload, "evaluated": len(entries)})
    return [(json.dumps(canonicalize(event), sort_keys=True,
                        separators=(",", ":")) + "\n").encode()
            for event in events]


class TestLeaderLinesMatchTheBatch:
    """The leader streams each point as its space is costed; its entry and
    report lines are the job-batch reference's, serial and dense."""

    SPEC = {"tiny": True, "kernels": ["sor", "matmul"], "max_lanes": 2,
            "devices": ["stratix-v", "virtex-7"], "forms": ["A", "C"],
            "patterns": ["contiguous", "strided"], "clocks_mhz": [150, 212.5]}

    @pytest.mark.parametrize("dense", [False, True])
    def test_entry_and_report_lines(self, server, dense):
        status, chunks = raw_post(server.port, "/suite", {**self.SPEC, "dense": dense})
        assert status == 200
        meta, *lines = ndjson_lines(chunks)
        assert json.loads(meta)["role"] == "leader"
        expected = batch_reference_lines(self.SPEC)
        assert len(expected) == 2 * 2 * 2 * 2 * 2 * 2 + 1
        assert lines == expected
