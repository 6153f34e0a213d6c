"""The exploration service: a persistent daemon in front of the caches.

The cost model answers in milliseconds once its caches are warm — but a
fresh CLI process pays calibration and family analysis on every
invocation, and concurrent batch jobs each warm a private copy of the
same state.  The service inverts that: one long-lived process owns one
warm set of caches (calibration artifacts, design families, session
pipelines, cost groups, dense sweeps) and every client shares them.

Endpoints (all JSON):

``POST /suite``
    Body: a :class:`~repro.suite.runner.SuiteConfig` spec (same fields
    as ``tybec suite run``, ``"tiny": true`` for the smoke grids; a
    boolean ``"dense"`` is accepted for older clients and changes
    nothing).  Streams NDJSON — one ``entry`` event per costed design
    point as it completes, then one final ``report`` event whose payload
    is the *byte-identical* canonical ``repro-suite-report/1`` a batch
    run would produce.

``POST /dse``
    Body: a suite spec plus ``"optimizer"`` and ``"params"``.  One
    ``round`` event per optimizer round, then the DSE ``report`` event.

``POST /cost``
    Body: ``{"design": "<.tirl text>", "device": ..., "grid": [...],
    "iterations": N, "pattern": ...}``.  One ``report`` event with the
    canonical cost report.

``GET /metrics``
    Cache hit/miss counters, queue depth, in-flight coalesce counts and
    per-stage timings.

``GET /healthz``
    Liveness probe.

:func:`~repro.suite.runner.parse_request` checks every body before it
leases a task: a bad field gets a 400 naming it, a handler bug a JSON 500.

Identical in-flight requests are coalesced on their content fingerprint
(the module hash for ``/cost``, the canonical configuration for
``/suite``): one underlying sweep runs, every client streams it, and a
bounded results cache replays recently-completed sweeps so the guarantee
does not depend on microsecond arrival order.  The leader encodes each
event once; followers and replays write the stored lines, joined into
one chunk, without re-encoding.  A semaphore bounds concurrent sweeps;
waiters are the reported queue depth.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.compiler.pipeline import CompilationOptions
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span
from repro.explore.dense import DenseBackend
from repro.explore.engine import (
    SweepEntry,
    canonical_report_dict,
    stats_view,
)
from repro.models import KernelInstance, NDRange, PatternKind
from repro.resilience import (
    COUNTERS,
    Deadline,
    MetricFamily,
    RetryPolicy,
    current_fault_plan,
    is_transient,
    maybe_fail,
    sum_families,
)
from repro.service.coalesce import CoalescedTask, RequestCoalescer
from repro.substrate import get_device
from repro.suite.report import canonical_json, canonical_json_line
from repro.suite.runner import (
    SuiteConfig,
    WorkloadSuite,
    build_suite_report,
    check_deadline_seconds,
    parse_request,
    run_dse,
)

__all__ = [
    "BadRequestError",
    "ExplorationService",
    "ServiceServer",
    "serve",
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


def _parse(endpoint: str, body) -> dict:
    """:func:`~repro.suite.runner.parse_request`, its refusal a 400."""
    try:
        return parse_request(endpoint, body)
    except ValueError as exc:
        raise BadRequestError(str(exc)) from exc


def _encode(event, spelled: dict | None = None,
            floats: dict | None = None) -> bytes:
    """One event's canonical NDJSON line: the service's only encode (an
    event is a dict or, for ``entry`` events, a report row).  ``spelled``
    holds the row texts of a ``report`` event (see :func:`_row_texts`) and
    ``floats`` the float spellings of one sweep's lines."""
    return canonical_json_line(event, spelled, floats).encode()


def _fingerprint(kind: str, payload: dict) -> str:
    """The content fingerprint identical requests coalesce on."""
    body = canonical_json({"kind": kind, **payload})
    return hashlib.sha256(body.encode()).hexdigest()


class _EntryEvent:
    """One streamed ``entry`` event: the entry's point and report beside
    ``event`` and ``index``.  It is a report row, so
    :func:`canonical_json_line` encodes it through a cached template."""

    __slots__ = ("index", "entry")

    def __init__(self, index: int, entry: SweepEntry):
        self.index, self.entry = index, entry

    def as_dict(self) -> dict:
        return {"event": "entry", "index": self.index, **self.entry.as_dict()}

    def row_layout(self) -> tuple:
        return self.entry.row_layout()

    def row_leaves(self) -> tuple:
        return ("entry", self.index, *self.entry.row_leaves())


def _row_texts(published) -> dict[int, str]:
    """``id(row) -> compact text`` for the rows of the ``(entry event,
    its line)`` pairs in ``published``, cut out of the lines.

    ``event`` and ``index`` sort before every key of a row, so an entry
    line is ``{"event":"entry","index":N,`` followed by its row's compact
    text less the opening ``{``.  A line that does not start so (a row
    with a key sorting first) gives no text, and the report encode
    spells that row itself.
    """
    texts = {}
    for event, line in published:
        head = b'{"event":"entry","index":%d,' % event.index
        if line.startswith(head):
            texts[id(event.entry)] = "{" + line[len(head):-1].decode()
    return texts


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
        self.default_deadline_seconds = check_deadline_seconds(
            default_deadline_seconds, "default_deadline_seconds")
        #: the one backend: /suite and /dse sweeps, the surrogate's
        #: dense prune and the /cost sessions
        self._backend = DenseBackend()
        self.coalescer = RequestCoalescer(results_capacity=results_capacity)
        self._lock = threading.Lock()
        self._gate = threading.Semaphore(self.max_concurrency)
        self._queued = 0
        self._active = 0
        self.started = time.time()
        self.requests = MetricFamily(
            "tybec_service_requests_total", ("kind",),
            "Service requests by kind, and error answers.")
        for kind in ("cost", "suite", "dse", "metrics", "errors"):
            self.requests.bump(kind, 0)
        self.sweeps = MetricFamily(
            "tybec_service_sweeps_total", ("event",),
            "Sweeps the service started and completed.")
        for event in ("started", "completed"):
            self.sweeps.bump(event, 0)
        # gauges, re-read just before each scrape (see ``_read_gauges``)
        self.queue = MetricFamily(
            "tybec_service_queue", ("state",),
            "Sweep slots: waiting (depth), running (active) and capacity.",
            kind="gauge")
        self.in_flight = MetricFamily(
            "tybec_service_in_flight",
            help="Coalesced computations currently in flight.", kind="gauge")
        self.uptime = MetricFamily(
            "tybec_service_uptime_seconds",
            help="Seconds since service start.", kind="gauge")
        #: renders every family above, the resilience counters, the
        #: backend's and the disk cache's, plus the request-latency
        #: histogram it owns
        self.registry = MetricsRegistry()
        self.request_seconds = self.registry.histogram(
            "tybec_request_seconds",
            "HTTP request latency by endpoint and status.",
            labelnames=("endpoint", "status"),
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        self.requests.bump(endpoint)

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Feed one finished HTTP request into the latency histogram."""
        if endpoint not in _KNOWN_ENDPOINTS:
            endpoint = "other"
        self.request_seconds.labels(
            endpoint=endpoint, status=str(status)).observe(seconds)

    def prometheus_metrics(self) -> str:
        """The ``/metrics?format=prometheus`` text exposition."""
        disk, _ = self._read_gauges()
        families = self._backend.families() + [
            COUNTERS, self.requests, self.sweeps, self.queue, self.in_flight,
            self.uptime, self.coalescer.events,
            *(disk.families if disk is not None else ())]
        return self.registry.render_prometheus(sum_families(families).values())

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

    def _read_gauges(self) -> tuple:
        """Set every gauge from what it measures, just before a scrape.

        Returns the disk cache and its stats (``(None, None)`` when
        persistence is off); reading the stats re-reads its gauges.
        """
        with self._lock:
            queued, active = self._queued, self._active
        self.queue.set("depth", queued)
        self.queue.set("active", active)
        self.queue.set("capacity", self.max_concurrency)
        self.in_flight.set((), self.coalescer.in_flight())
        self.uptime.set((), time.time() - self.started)
        from repro.cost.cache import default_disk_cache

        cache = default_disk_cache()
        return cache, None if cache is None else cache.stats()

    def metrics(self) -> dict:
        """The ``/metrics`` payload: queue, coalescing and cache health."""
        _, disk = self._read_gauges()
        plan = current_fault_plan()
        return {
            "uptime_seconds": self.uptime.get(),
            "requests": self.requests.snapshot(),
            "sweeps": self.sweeps.snapshot(),
            "resilience": {
                "counters": COUNTERS.snapshot(),
                "fault_plan": None if plan is None else plan.stats(),
            },
            "queue": self.queue.snapshot(),
            "coalesce": self.coalescer.info(),
            "pipeline": stats_view(self._backend.families()),
            "disk_cache": disk,
        }

    # ------------------------------------------------------------------
    # /cost — one design variant
    # ------------------------------------------------------------------
    def lease_cost(self, spec: dict) -> tuple[CoalescedTask, str, dict]:
        """Parse a ``/cost`` body; lease its coalesced task.

        Returns ``(task, role, request)`` where ``request`` carries the
        parsed module and workload a leader needs to compute.
        """
        # every field is checked before a task is leased: a bad body must
        # get its 400 without leaving an in-flight task behind
        request = _parse("cost", spec)
        try:
            from repro.compiler import TybecCompiler

            module = TybecCompiler(CompilationOptions()).parse(
                request["design"], name=request["name"])
        except Exception as exc:
            raise BadRequestError(str(exc.args[0] if exc.args else exc)) from exc
        # the deadline is not fingerprinted: the same work coalesces
        # whatever budgets the individual clients brought (budgets cannot
        # change report bytes, so sharing the computation stays sound)
        key = _fingerprint("cost", {
            "module": module.content_fingerprint(),
            **{name: request[name]
               for name in ("device", "grid", "iterations", "pattern")},
        })
        task, role = self.coalescer.lease(key)
        request.update(module=module, pattern=PatternKind(request["pattern"]),
                       workload=KernelInstance(
                           kernel=module.name, ndrange=NDRange(request["grid"]),
                           repetitions=request["iterations"]))
        return task, role, request

    def _deadline_for(self, request: dict) -> Deadline:
        """A fresh per-attempt budget (a promoted leader starts over)."""
        # a checked budget is never 0, so ``or`` only falls back on None
        seconds = request["deadline_seconds"] or self.default_deadline_seconds
        return Deadline(seconds) if seconds else Deadline.none()

    def run_cost(self, request: dict, publish=None) -> dict:
        """Leader path of one ``/cost`` request: cost the variant (one
        event, so nothing is published before the report)."""
        deadline = self._deadline_for(request)
        with self._slot():
            deadline.check("cost request queued too long")
            maybe_fail("service.handler")
            pipeline = self._backend.session_for(get_device(request["device"]))
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
        request = _parse("suite", spec)
        key = _fingerprint("suite", {"config": request["config"].as_dict()})
        task, role = self.coalescer.lease(key)
        return task, role, request

    def run_suite(self, request: dict, publish) -> dict:
        """Leader path of one ``/suite`` request.

        Streams one ``entry`` event per costed point through ``publish``
        (points land in deterministic sweep order), then returns the
        final ``report`` event.  The report payload goes through
        :func:`~repro.suite.runner.build_suite_report`, so it is
        byte-identical to what ``WorkloadSuite.run()`` — and therefore
        ``tybec suite run`` — produces for the same configuration.  It is
        returned raw: the leader's one encode of the event canonicalizes
        it.
        """
        config: SuiteConfig = request["config"]
        deadline = self._deadline_for(request)
        with self._slot():
            deadline.check("suite request queued too long")
            maybe_fail("service.handler")
            self.sweeps.bump("started")
            spaces, sweep = WorkloadSuite(config, backend=self._backend).sweep(
                deadline=deadline,
                on_entry=lambda index, entry: publish(_EntryEvent(index, entry)))
            report = build_suite_report(config, spaces, sweep)
            self.sweeps.bump("completed")
        return {
            "event": "report",
            "kind": "suite",
            "payload": report.payload,
            "evaluated": sweep.evaluated,
        }

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
        request = _parse("dse", spec)
        key = _fingerprint("dse", {
            "config": request["config"].as_dict(),
            "optimizer": {"name": request["optimizer"],
                          "params": request["params"]},
        })
        task, role = self.coalescer.lease(key)
        return task, role, request

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
            self.sweeps.bump("started")

            def _round(label: str, round_, entries) -> None:
                event = {"event": "round", "run": label,
                         **round_.as_dict()}
                publish(event)

            dse = run_dse(config, request["optimizer"],
                          backend=self._backend,
                          params=request["params"], on_round=_round,
                          deadline=deadline)
            self.sweeps.bump("completed")
        return {
            "event": "report",
            "kind": "dse",
            "payload": dse.report.payload,
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
            except Exception as exc:  # noqa: BLE001 - the last-resort answer
                self._internal_error(exc)
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

    def _internal_error(self, exc: Exception) -> None:
        """The last-resort answer: a JSON 500, or a close if half-sent."""
        COUNTERS.bump("service.internal_errors")
        log_event(_LOG, "internal_error", level=logging.ERROR,
                  path=self.path, error=repr(exc), trace=self._trace_id or "-")
        if self._status:
            self.service.count_request("errors")
            self.close_connection = True
        else:
            self._send_json({"error": f"internal error: {type(exc).__name__}"},
                            500)

    # -- plumbing ------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        if status >= 400:
            self.service.count_request("errors")
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
        #: what replaces a line's closing ``}\n`` to stamp the trace id
        self._trace_tail = (b',"trace":' + json.dumps(self._trace_id).encode()
                            + b"}\n") if self._trace_id else None
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        try:
            self.end_headers()
        except OSError:     # hung up: the leased task still runs, see below
            self._broken = True

    def _write_lines(self, lines: list[bytes]) -> None:
        """Write encoded NDJSON lines as one HTTP chunk.

        A client hanging up must not kill the computation — followers
        (and the results cache) still need it — so write failures just
        stop this connection's output.  When the request carries a trace
        id, every line is stamped with it under a top-level ``trace``
        key — a sibling of the canonical ``payload``, never inside it,
        so report bytes stay identical to an untraced run's.  Stamping
        splices ``,"trace":"<id>"`` before the line's closing brace,
        which is byte-identical to encoding the event with that key
        because ``trace`` sorts after every event key.
        """
        if self._broken:
            return
        if self._trace_tail:
            lines = [line[:-2] + self._trace_tail for line in lines]
        size = sum(map(len, lines))
        try:
            self.wfile.write(b"".join([b"%X\r\n" % size, *lines, b"\r\n"]))
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

    def _read_body(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"null")
        except ValueError as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") \
                from exc

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
                self._send_json(
                    {"error": f"unknown metrics format {fmt!r}; "
                     "use 'json' or 'prometheus'"}, 400)
        else:
            self._send_json({"error": f"no such endpoint {parts.path!r}"},
                            404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        with self.server.track_request():  # type: ignore[attr-defined]
            self._handle("POST", self._do_post)

    def _do_post(self) -> None:
        endpoint = self.path.lstrip("/")
        try:
            spec = self._read_body()
            if endpoint not in ("suite", "dse", "cost"):
                self._send_json({"error": f"no such endpoint {self.path!r}"},
                                404)
                return
            self.service.count_request(endpoint)
            task, role, request = getattr(self.service, f"lease_{endpoint}")(spec)
        except BadRequestError as exc:
            self._send_json({"error": str(exc)}, 400)
            return
        self._start_stream()
        self._write_lines([_encode({"event": "meta", "fingerprint": task.key,
                                    "role": role})])
        self._drive(task, role, request, getattr(self.service, f"run_{endpoint}"))
        self._end_stream()

    def _drive(self, task: CoalescedTask, role: str, request: dict,
               runner) -> None:
        """Drive one leased task to completion on this connection.

        One loop covers every role and every role *transition*: a leader
        that fails transiently is demoted to a waiter (its leadership up
        for grabs, so followers are never stranded by a dead leader), a
        waiter that sees the leadership lost claims it and recomputes.
        ``task.publish`` deduplicates the deterministic prefix a promoted
        leader regenerates, so ``cursor`` — lines already sent to *this*
        client — stays aligned with the task's event log throughout.
        The leader encodes each event once and writes it as its own
        chunk; everyone else writes the stored lines they catch up on
        (a replay: the whole log plus the report) as one chunk.  The
        leader's report line takes each row's text from the row's entry
        line rather than spelling it again.
        """
        service = self.service
        cursor = 0
        while True:
            if role == "leader":
                # (entry event, its unstamped line) of this attempt, and
                # the float spellings its lines share
                published: list[tuple[_EntryEvent, bytes]] = []
                floats: dict = {}

                def _publish(event) -> None:
                    nonlocal cursor
                    line = _encode(event, floats=floats)
                    if type(event) is _EntryEvent:
                        published.append((event, line))
                    if task.publish(line):
                        self._write_lines([line])
                        cursor += 1

                try:
                    result = runner(request, _publish)
                except Exception as exc:  # noqa: BLE001 - reported to clients
                    if service.coalescer.abandon(task, exc,
                                                 promote=is_transient(exc)):
                        role = "waiter"   # demoted; may re-claim below
                        continue
                    service.count_request("errors")
                    self._write_lines([_encode({"event": "error",
                                                "message": str(exc)})])
                    return
                line = _encode(result, _row_texts(published), floats)
                service.coalescer.complete(task, line)
                self._write_lines([line])
                return
            # follower, replay or demoted ex-leader: write the stored lines
            batch, state = task.next_events(cursor)
            cursor += len(batch)
            if state == "done":
                self._write_lines(batch + [task.result])
                return
            if state == "failed":
                service.count_request("errors")
                self._write_lines(batch + [_encode({
                    "event": "error",
                    "message": task.error_message or "service error"})])
                return
            if batch:
                self._write_lines(batch)
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
