"""The exploration service: a persistent daemon in front of the caches.

The cost model answers in milliseconds once its caches are warm — but a
fresh CLI process pays calibration and family analysis on every
invocation, and concurrent batch jobs each warm a private copy of the
same state.  The service inverts that: one long-lived process owns one
warm set of caches (calibration artifacts, design families, session
pipelines, dense sweep vectors) and every client shares them.

Endpoints (all JSON):

``POST /suite``
    Body: a :class:`~repro.suite.runner.SuiteConfig` spec (same fields
    as ``tybec suite run``; plus ``"dense": true`` for the broadcast
    evaluator and ``"tiny": true`` for the smoke grids).  Streams NDJSON
    — one ``entry`` event per costed design point as it completes, then
    one final ``report`` event whose payload is the *byte-identical*
    canonical ``repro-suite-report/1`` a batch run would produce.

``POST /cost``
    Body: ``{"design": "<.tirl text>", "device": ..., "grid": [...],
    "iterations": N, "pattern": ...}``.  One ``report`` event with the
    canonical cost report.

``GET /metrics``
    Cache hit/miss counters, queue depth, in-flight coalesce counts and
    per-stage timings.

``GET /healthz``
    Liveness probe.

Identical in-flight requests are coalesced on their content fingerprint
(the module hash for ``/cost``, the canonical configuration for
``/suite``): one underlying sweep runs, every client streams it, and a
bounded results cache replays recently-completed sweeps so the guarantee
does not depend on microsecond arrival order.  A semaphore bounds
concurrent sweeps; waiters are the reported queue depth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.compiler.pipeline import CompilationOptions, EstimationPipeline
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, samples_from_service_metrics
from repro.obs.trace import span as trace_span
from repro.explore.dense import DenseBackend
from repro.explore.engine import (
    SerialBackend,
    SweepEntry,
    SweepResult,
    canonical_report_dict,
    merge_stats,
)
from repro.models import KernelInstance, NDRange, PatternKind
from repro.resilience import (
    COUNTERS,
    Deadline,
    RetryPolicy,
    current_fault_plan,
    is_transient,
    maybe_fail,
)
from repro.service.coalesce import CoalescedTask, RequestCoalescer
from repro.substrate import get_device
from repro.suite.report import canonical_json, canonical_json_line
from repro.suite.runner import (
    SuiteConfig,
    WorkloadSuite,
    build_suite_report,
    resolve_dse_params,
    run_dse,
)

__all__ = [
    "BadRequestError",
    "ExplorationService",
    "ServiceServer",
    "serve",
    "suite_config_from_spec",
]

DEFAULT_PORT = 8731

#: request header that carries a client's trace id into the service (and
#: is stamped back onto every NDJSON event of the response stream)
TRACE_HEADER = "X-Tybec-Trace"

#: endpoints with their own latency-histogram label; anything else is
#: folded into "other" so hostile paths cannot explode label cardinality
_KNOWN_ENDPOINTS = ("/healthz", "/metrics", "/suite", "/dse", "/cost")

_LOG = get_logger("service")
_ACCESS_LOG = get_logger("service.access")


class BadRequestError(ValueError):
    """A malformed or unsatisfiable request body (HTTP 400)."""


def suite_config_from_spec(spec: dict) -> SuiteConfig:
    """Build a :class:`SuiteConfig` from a request body.

    Mirrors the ``tybec suite run`` flag handling: ``"tiny": true``
    starts from the golden smoke configuration, every other field
    overrides the corresponding config axis.  Unknown fields are an
    error — a typo must not silently cost a different grid.
    """
    spec = dict(spec)
    tiny = bool(spec.pop("tiny", False))
    known = {f.name for f in dataclasses.fields(SuiteConfig)}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise BadRequestError(
            f"unknown suite field(s) {unknown}; known: {sorted(known)} "
            f"(plus 'tiny' and 'dense')"
        )
    try:
        for name in ("kernels", "devices", "forms", "patterns", "clocks_mhz"):
            if name in spec and spec[name] is not None:
                spec[name] = tuple(spec[name])
        if spec.get("lanes") is not None:
            spec["lanes"] = tuple(spec["lanes"])
        if "grids" in spec:
            spec["grids"] = {k: tuple(v) for k, v in dict(spec["grids"]).items()}
        if tiny:
            config = SuiteConfig.tiny(
                kernels=spec.pop("kernels", ()),
                devices=spec.pop("devices", ("stratix-v",)),
                max_lanes=spec.pop("max_lanes", 4),
            )
            config = dataclasses.replace(config, **spec) if spec else config
        else:
            config = SuiteConfig(**spec)
        config.resolved_kernels()          # validate kernel names now
        for device in config.devices:      # and device names
            get_device(device)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise BadRequestError(str(exc.args[0] if exc.args else exc)) from exc
    return config


def _fingerprint(kind: str, payload: dict) -> str:
    """The content fingerprint identical requests coalesce on."""
    body = canonical_json({"kind": kind, **payload})
    return hashlib.sha256(body.encode()).hexdigest()


class ExplorationService:
    """The shared warm state plus the request coalescer behind the HTTP
    front end (usable directly, without any socket, for tests)."""

    #: backoff schedule between leadership claims on the same task, so a
    #: repeatedly-failing sweep does not hot-spin through its claim budget
    leader_retry_policy = RetryPolicy(max_attempts=CoalescedTask.MAX_LEADER_CLAIMS,
                                      base_delay=0.02, max_delay=0.5)

    def __init__(self, max_concurrency: int = 4, results_capacity: int = 64,
                 default_deadline_seconds: float | None = None):
        self.max_concurrency = max(1, max_concurrency)
        #: per-request compute budget when the body names none
        self.default_deadline_seconds = default_deadline_seconds
        self._backend = SerialBackend()
        self._dense = DenseBackend()
        self.coalescer = RequestCoalescer(results_capacity=results_capacity)
        self._pipelines: dict[str, EstimationPipeline] = {}
        self._lock = threading.Lock()
        self._gate = threading.Semaphore(self.max_concurrency)
        self._queued = 0
        self._active = 0
        self.started = time.time()
        self.requests = {"cost": 0, "suite": 0, "dse": 0, "metrics": 0,
                         "errors": 0}
        self.sweeps = {"started": 0, "completed": 0}
        #: the one registry every stat surface is exposed through; the
        #: JSON ``/metrics`` payload keeps its shape, and the Prometheus
        #: rendering adapts that same payload at scrape time
        self.registry = MetricsRegistry()
        self.request_seconds = self.registry.histogram(
            "tybec_request_seconds",
            "HTTP request latency by endpoint and status.",
            labelnames=("endpoint", "status"),
        )
        self.registry.register_collector(
            lambda: samples_from_service_metrics(self.metrics())
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Feed one finished HTTP request into the latency histogram."""
        if endpoint not in _KNOWN_ENDPOINTS:
            endpoint = "other"
        self.request_seconds.labels(
            endpoint=endpoint, status=str(status)).observe(seconds)

    def prometheus_metrics(self) -> str:
        """The ``/metrics?format=prometheus`` text exposition."""
        return self.registry.render_prometheus()

    @contextmanager
    def _slot(self):
        """Backpressure: bounded concurrent sweeps, waiters = queue depth."""
        with self._lock:
            self._queued += 1
        self._gate.acquire()
        with self._lock:
            self._queued -= 1
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
            self._gate.release()

    def metrics(self) -> dict:
        """The ``/metrics`` payload: queue, coalescing and cache health."""
        with self._lock:
            requests = dict(self.requests)
            sweeps = dict(self.sweeps)
            queued, active = self._queued, self._active
            pipelines = list(self._pipelines.values())
        stats = merge_stats(
            [self._backend.collect_stats(), self._dense.collect_stats()]
            + [p.stats.as_dict() for p in pipelines]
        )
        disk = None
        from repro.cost.cache import default_disk_cache

        cache = default_disk_cache()
        if cache is not None:
            disk = cache.stats()
        plan = current_fault_plan()
        return {
            "uptime_seconds": time.time() - self.started,
            "requests": requests,
            "sweeps": sweeps,
            "resilience": {
                "counters": COUNTERS.snapshot(),
                "fault_plan": None if plan is None else plan.stats(),
            },
            "queue": {
                "depth": queued,
                "active": active,
                "capacity": self.max_concurrency,
            },
            "coalesce": self.coalescer.info(),
            "pipeline": stats,
            "disk_cache": disk,
        }

    # ------------------------------------------------------------------
    # /cost — one design variant
    # ------------------------------------------------------------------
    def _pipeline_for_device(self, device_name: str) -> EstimationPipeline:
        with self._lock:
            pipeline = self._pipelines.get(device_name)
            if pipeline is None:
                options = CompilationOptions(device=get_device(device_name))
                pipeline = self._pipelines[device_name] = EstimationPipeline(options)
            return pipeline

    def lease_cost(self, spec: dict) -> tuple[CoalescedTask, str, dict]:
        """Parse a ``/cost`` body; lease its coalesced task.

        Returns ``(task, role, request)`` where ``request`` carries the
        parsed module and workload a leader needs to compute.
        """
        if not isinstance(spec, dict) or "design" not in spec:
            raise BadRequestError("body must be a JSON object with a 'design' "
                                  "field holding the .tirl text")
        spec = dict(spec)
        # popped before fingerprinting: the same work coalesces whatever
        # budgets the individual clients brought (budgets cannot change
        # report bytes, so sharing the computation stays sound)
        deadline_seconds = spec.pop("deadline_seconds", None)
        device = str(spec.get("device", "stratix-v"))
        grid = tuple(int(d) for d in spec.get("grid", (24, 24, 24)))
        iterations = int(spec.get("iterations", 1000))
        pattern = str(spec.get("pattern", "contiguous"))
        name = str(spec.get("name", "design"))
        try:
            get_device(device)
            pattern_kind = PatternKind(pattern)
            from repro.compiler import TybecCompiler

            module = TybecCompiler(CompilationOptions()).parse(
                spec["design"], name=name)
        except Exception as exc:
            raise BadRequestError(str(exc.args[0] if exc.args else exc)) from exc
        key = _fingerprint("cost", {
            "module": module.content_fingerprint(),
            "device": device,
            "grid": list(grid),
            "iterations": iterations,
            "pattern": pattern,
        })
        task, role = self.coalescer.lease(key)
        request = {
            "module": module,
            "device": device,
            "workload": KernelInstance(kernel=module.name, ndrange=NDRange(grid),
                                       repetitions=iterations),
            "pattern": pattern_kind,
            "deadline_seconds": deadline_seconds,
        }
        return task, role, request

    def _deadline_for(self, request: dict) -> Deadline:
        """A fresh per-attempt budget (a promoted leader starts over)."""
        seconds = request.get("deadline_seconds")
        if seconds is None:
            seconds = self.default_deadline_seconds
        return Deadline(float(seconds)) if seconds else Deadline.none()

    def run_cost(self, request: dict) -> dict:
        """Leader path of one ``/cost`` request: cost the variant."""
        deadline = self._deadline_for(request)
        with self._slot():
            deadline.check("cost request queued too long")
            maybe_fail("service.handler")
            pipeline = self._pipeline_for_device(request["device"])
            report = pipeline.cost(request["module"], request["workload"],
                                   request["pattern"])
        return {
            "event": "report",
            "kind": "cost",
            "payload": canonical_report_dict(report),
        }

    # ------------------------------------------------------------------
    # /suite — a whole sweep grid
    # ------------------------------------------------------------------
    def lease_suite(self, spec: dict) -> tuple[CoalescedTask, str, dict]:
        """Parse a ``/suite`` body; lease its coalesced task."""
        if not isinstance(spec, dict):
            raise BadRequestError("body must be a JSON object")
        spec = dict(spec)
        dense = bool(spec.pop("dense", False))
        # popped before fingerprinting — see :meth:`lease_cost`
        deadline_seconds = spec.pop("deadline_seconds", None)
        config = suite_config_from_spec(spec)
        key = _fingerprint("suite", {"config": config.as_dict(), "dense": dense})
        task, role = self.coalescer.lease(key)
        return task, role, {"config": config, "dense": dense,
                            "deadline_seconds": deadline_seconds}

    def run_suite(self, request: dict, publish) -> dict:
        """Leader path of one ``/suite`` request.

        Streams one ``entry`` event per costed point through ``publish``
        (points land in deterministic sweep order), then returns the
        final ``report`` event.  The report payload goes through
        :func:`~repro.suite.runner.build_suite_report`, so it is
        byte-identical to what ``WorkloadSuite.run()`` — and therefore
        ``tybec suite run`` — produces for the same configuration.
        """
        config: SuiteConfig = request["config"]
        backend = self._dense if request["dense"] else self._backend
        deadline = self._deadline_for(request)
        with self._slot():
            deadline.check("suite request queued too long")
            maybe_fail("service.handler")
            with self._lock:
                self.sweeps["started"] += 1
            suite = WorkloadSuite(config, backend=backend)
            if request["dense"]:
                spaces, sweep = suite.sweep(deadline=deadline)
                for index, entry in enumerate(sweep.entries):
                    publish(self._entry_event(index, entry))
            else:
                spaces = suite.spaces()
                jobs = suite.jobs(spaces)
                if not jobs:
                    raise BadRequestError(
                        "suite has no design points (no valid lane counts "
                        "for the configured grids?)"
                    )
                started = time.perf_counter()

                def _progress(index: int, report) -> None:
                    publish(self._entry_event(
                        index, SweepEntry(jobs[index].point, report)))

                reports = self._backend.run(jobs, progress=_progress,
                                            deadline=deadline)
                sweep = SweepResult(
                    entries=[SweepEntry(job.point, report)
                             for job, report in zip(jobs, reports)],
                    wall_seconds=time.perf_counter() - started,
                    stats=self._backend.collect_stats(),
                )
            report = build_suite_report(config, spaces, sweep)
            with self._lock:
                self.sweeps["completed"] += 1
        return {
            "event": "report",
            "kind": "suite",
            "payload": report.canonical_dict(),
            "evaluated": sweep.evaluated,
        }

    @staticmethod
    def _entry_event(index: int, entry: SweepEntry) -> dict:
        return {"event": "entry", "index": index, **entry.as_dict()}

    # ------------------------------------------------------------------
    # /dse — optimizer-driven design-space exploration
    # ------------------------------------------------------------------
    def lease_dse(self, spec: dict) -> tuple[CoalescedTask, str, dict]:
        """Parse a ``/dse`` body; lease its coalesced task.

        The body is a suite spec plus ``optimizer`` (name, default
        ``"fmax"``) and ``params`` (optimizer knobs).  The fingerprint
        covers the *resolved* parameters, so two requests differing only
        in an omitted default coalesce onto the same search.
        """
        if not isinstance(spec, dict):
            raise BadRequestError("body must be a JSON object")
        spec = dict(spec)
        # popped before fingerprinting — see :meth:`lease_cost`
        deadline_seconds = spec.pop("deadline_seconds", None)
        optimizer = spec.pop("optimizer", "fmax")
        raw_params = spec.pop("params", None)
        if not isinstance(optimizer, str):
            raise BadRequestError("'optimizer' must be a string")
        if raw_params is not None and not isinstance(raw_params, dict):
            raise BadRequestError("'params' must be a JSON object")
        try:
            params = resolve_dse_params(optimizer, raw_params)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from exc
        config = suite_config_from_spec(spec)
        key = _fingerprint("dse", {
            "config": config.as_dict(),
            "optimizer": {"name": optimizer, "params": params},
        })
        task, role = self.coalescer.lease(key)
        return task, role, {"config": config, "optimizer": optimizer,
                            "params": params,
                            "deadline_seconds": deadline_seconds}

    def run_dse(self, request: dict, publish) -> dict:
        """Leader path of one ``/dse`` request.

        Streams one ``round`` event per optimizer loop round through
        ``publish`` (run label, round index, points proposed, the
        optimizer's own note), then returns the final ``report`` event
        with the canonical ``repro-dse-report/1`` payload — byte-identical
        to what ``tybec suite dse`` writes for the same configuration.
        """
        config: SuiteConfig = request["config"]
        deadline = self._deadline_for(request)
        with self._slot():
            deadline.check("dse request queued too long")
            maybe_fail("service.handler")
            with self._lock:
                self.sweeps["started"] += 1

            def _round(label: str, round_, entries) -> None:
                event = {"event": "round", "run": label,
                         **round_.as_dict()}
                publish(event)

            dse = run_dse(config, request["optimizer"],
                          backend=self._backend, dense_backend=self._dense,
                          params=request["params"], on_round=_round,
                          deadline=deadline)
            with self._lock:
                self.sweeps["completed"] += 1
        return {
            "event": "report",
            "kind": "dse",
            "payload": dse.report.canonical_dict(),
            "evaluated": dse.evaluated,
        }


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "tybec-service/1"

    #: HTTP status of the in-flight request (recorded by send_response)
    _status = 0
    #: trace id of the in-flight request (adopted from X-Tybec-Trace or
    #: minted by the active tracer); stamped on every streamed event
    _trace_id: str | None = None

    @property
    def service(self) -> ExplorationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # the stdlib default writes raw lines to stderr; route through the
        # structured logger instead so nothing is silently swallowed (the
        # per-request access event with timing is emitted by _handle)
        log_event(
            _ACCESS_LOG,
            "http",
            level=logging.DEBUG,
            client=self.address_string(),
            message=format % args,
            trace=self._trace_id or "-",
        )

    def send_response(self, code, message=None):
        self._status = code
        super().send_response(code, message)

    def _handle(self, method: str, route) -> None:
        """Run one routed request under a span, then emit the access log."""
        started = time.perf_counter()
        self._status = 0
        incoming = self.headers.get(TRACE_HEADER) or None
        with trace_span("service.request", incoming,
                        method=method, path=self.path) as sp:
            self._trace_id = sp.trace_id if sp is not None else incoming
            try:
                route()
            finally:
                elapsed = time.perf_counter() - started
                self.service.observe_request(
                    urlsplit(self.path).path, self._status, elapsed)
                log_event(
                    _ACCESS_LOG,
                    "request",
                    level=logging.INFO
                    if getattr(self.server, "verbose", False)
                    else logging.DEBUG,
                    method=method,
                    path=self.path,
                    status=self._status,
                    duration_ms=round(elapsed * 1e3, 3),
                    trace=self._trace_id or "-",
                )
                self._trace_id = None

    # -- plumbing ------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: str, status: int = 200,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        data = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        self.end_headers()
        self.wfile.write(data)

    def _start_stream(self) -> None:
        self._broken = False
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        self.end_headers()

    def _stream_event(self, event: dict) -> None:
        """Write one NDJSON line as an HTTP chunk.

        A client hanging up must not kill the computation — followers
        (and the results cache) still need it — so write failures just
        stop this connection's output.  When the request carries a trace
        id, every event is stamped with it under a top-level ``trace``
        key — a sibling of the canonical ``payload``, never inside it,
        so report bytes stay identical to an untraced run's.
        """
        if self._broken:
            return
        if self._trace_id:
            event = {**event, "trace": self._trace_id}
        data = canonical_json_line(event).encode()
        try:
            self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
            self.wfile.flush()
        except OSError:
            self._broken = True

    def _end_stream(self) -> None:
        if self._broken:
            return
        try:
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except OSError:
            self._broken = True

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw or b"null")
        except ValueError as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        with self.server.track_request():  # type: ignore[attr-defined]
            self._handle("GET", self._do_get)

    def _do_get(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._send_json({"ok": True, "service": "tybec-exploration"})
        elif parts.path == "/metrics":
            self.service.count_request("metrics")
            fmt = (parse_qs(parts.query).get("format") or ["json"])[0]
            if fmt == "prometheus":
                self._send_text(
                    self.service.prometheus_metrics(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif fmt == "json":
                self._send_json(self.service.metrics())
            else:
                self.service.count_request("errors")
                self._send_json(
                    {"error": f"unknown metrics format {fmt!r}; "
                     "use 'json' or 'prometheus'"}, 400)
        else:
            self.service.count_request("errors")
            self._send_json({"error": f"no such endpoint {parts.path!r}"},
                            404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        with self.server.track_request():  # type: ignore[attr-defined]
            self._handle("POST", self._do_post)

    def _do_post(self) -> None:
        try:
            spec = self._read_body()
            if self.path == "/suite":
                self.service.count_request("suite")
                task, role, request = self.service.lease_suite(spec)
            elif self.path == "/dse":
                self.service.count_request("dse")
                task, role, request = self.service.lease_dse(spec)
            elif self.path == "/cost":
                self.service.count_request("cost")
                task, role, request = self.service.lease_cost(spec)
            else:
                self.service.count_request("errors")
                self._send_json({"error": f"no such endpoint {self.path!r}"},
                                404)
                return
        except BadRequestError as exc:
            self.service.count_request("errors")
            self._send_json({"error": str(exc)}, 400)
            return
        self._start_stream()
        self._stream_event({"event": "meta", "fingerprint": task.key,
                            "role": role})
        if self.path == "/suite":
            runner = self.service.run_suite
        elif self.path == "/dse":
            runner = self.service.run_dse
        else:
            runner = lambda req, publish: self.service.run_cost(req)  # noqa: E731
        self._drive(task, role, request, runner)
        self._end_stream()

    def _drive(self, task: CoalescedTask, role: str, request: dict,
               runner) -> None:
        """Drive one leased task to completion on this connection.

        One loop covers every role and every role *transition*: a leader
        that fails transiently is demoted to a waiter (its leadership up
        for grabs, so followers are never stranded by a dead leader), a
        waiter that sees the leadership lost claims it and recomputes.
        ``task.publish`` deduplicates the deterministic prefix a promoted
        leader regenerates, so ``cursor`` — events already sent to *this*
        client — stays aligned with the task's event log throughout.
        """
        service = self.service
        cursor = 0
        while True:
            if role == "leader":
                def _publish(event: dict) -> None:
                    nonlocal cursor
                    if task.publish(event):
                        self._stream_event(event)
                        cursor += 1

                try:
                    result = runner(request, _publish)
                except Exception as exc:  # noqa: BLE001 - reported to clients
                    if service.coalescer.abandon(task, exc,
                                                 promote=is_transient(exc)):
                        role = "waiter"   # demoted; may re-claim below
                        continue
                    service.count_request("errors")
                    self._stream_event({"event": "error", "message": str(exc)})
                    return
                service.coalescer.complete(task, result)
                self._stream_event(result)
                return
            # follower (or demoted ex-leader): stream the task's events
            batch, state = task.next_events(cursor)
            cursor += len(batch)
            for event in batch:
                self._stream_event(event)
            if state == "done":
                self._stream_event(task.result)
                return
            if state == "failed":
                service.count_request("errors")
                self._stream_event({"event": "error",
                                    "message": task.error_message
                                    or "service error"})
                return
            if state == "leader_lost" and task.claim_leadership():
                COUNTERS.bump("service.leaders_promoted")
                # pause before recomputing so a sweep that keeps dying
                # burns wall-clock, not its whole claim budget, at once
                time.sleep(service.leader_retry_policy.delay(
                    task.claims - 1, key=task.key))
                role = "leader"


class ServiceServer(ThreadingHTTPServer):
    """The threaded HTTP server wrapping one :class:`ExplorationService`."""

    daemon_threads = True
    # socketserver's default listen backlog of 5 drops SYNs under a
    # concurrent-client burst; the kernel's 1 s retransmit then shows up
    # as a latency cliff on otherwise-millisecond requests
    request_queue_size = 128

    def __init__(self, address: tuple[str, int],
                 service: ExplorationService | None = None,
                 verbose: bool = False):
        super().__init__(address, _ServiceHandler)
        self.service = service or ExplorationService()
        self.verbose = verbose
        self._inflight = 0
        self._idle = threading.Condition()

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- graceful shutdown ---------------------------------------------
    @contextmanager
    def track_request(self):
        """Count one in-flight request for the drain barrier."""
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def inflight_requests(self) -> int:
        with self._idle:
            return self._inflight

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every in-flight request finishes (or ``timeout``).

        Returns whether the server actually drained.  Call after
        :meth:`shutdown` — draining does not stop new connections by
        itself.
        """
        deadline = Deadline(timeout) if timeout else Deadline.none()
        with self._idle:
            while self._inflight > 0:
                remaining = deadline.remaining()
                if remaining <= 0:
                    return False
                self._idle.wait(None if remaining == float("inf")
                                else remaining)
            return True

    def shutdown_gracefully(self, timeout: float | None = 30.0) -> bool:
        """Stop accepting, drain in-flight requests, close the socket.

        The contract a SIGTERM'd ``tybec serve`` honours: streams already
        being served run to completion (drained, not dropped); only then
        does the process exit.  Returns whether the drain completed
        within ``timeout``.
        """
        self.shutdown()                 # stop the accept loop
        drained = self.drain(timeout)
        self.server_close()
        return drained


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          max_concurrency: int = 4, verbose: bool = False,
          request_deadline: float | None = None) -> ServiceServer:
    """Bind the service (``port=0`` for an ephemeral port); caller runs
    ``serve_forever()`` (or drives it from a background thread)."""
    service = ExplorationService(max_concurrency=max_concurrency,
                                 default_deadline_seconds=request_deadline)
    return ServiceServer((host, port), service, verbose=verbose)
