"""A stdlib client for the exploration service.

Built on :mod:`http.client` (no new dependencies): one connection per
request, chunked-transfer decoding handled by the stdlib, NDJSON events
surfaced either as an iterator (:meth:`ServiceClient.stream`) or folded
into a :class:`ServiceResponse` (:meth:`cost` / :meth:`suite`).

The response's ``payload`` is the canonical report dict; pushing it back
through :func:`repro.suite.report.canonical_json` reproduces the exact
bytes ``tybec suite run -o report.json`` would have written for the same
configuration — that round trip is what the coalescing acceptance test
pins.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.trace import current_trace_id
from repro.resilience import RetryBudgetExceededError, RetryPolicy
from repro.service.server import DEFAULT_PORT, TRACE_HEADER

__all__ = ["ServiceClient", "ServiceError", "ServiceResponse"]

#: connect-level retry budget: refused/reset connections (a daemon
#: restarting, a listen backlog burst) are retried with backoff; once
#: connected, a request is sent once — a disconnect after the body went
#: out may mean the server saw it, and replaying answered work is the
#: coalescer's job, not the transport's
DEFAULT_CONNECT_POLICY = RetryPolicy(max_attempts=3, base_delay=0.1,
                                     max_delay=1.0)


class ServiceError(RuntimeError):
    """An HTTP error status or a streamed ``error`` event."""


@dataclass
class ServiceResponse:
    """One folded request/response exchange."""

    #: the final report payload (canonical dict)
    payload: dict
    #: content fingerprint the service coalesced this request on
    fingerprint: str = ""
    #: ``leader`` (we computed), ``follower`` (joined an in-flight
    #: computation) or ``replay`` (served from the results cache)
    role: str = ""
    #: streamed per-point ``entry`` events, in sweep order
    entries: list = field(default_factory=list)

    @property
    def coalesced(self) -> bool:
        return self.role in ("follower", "replay")


class ServiceClient:
    """Talk to a running exploration service."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 300.0,
                 retry_policy: RetryPolicy | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_policy = retry_policy or DEFAULT_CONNECT_POLICY

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        trace_id = current_trace_id()
        if trace_id:
            # propagate the active trace so the server's request span (and
            # every streamed event it stamps) joins this client's trace
            headers[TRACE_HEADER] = trace_id

        def _connect(attempt: int) -> http.client.HTTPConnection:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            try:
                conn.connect()
            except ConnectionError:
                conn.close()
                raise
            return conn

        try:
            conn = self.retry_policy.call(
                _connect, key="client.connect", what=f"{method} {path}",
                classify=lambda exc: isinstance(exc, ConnectionError))
        except RetryBudgetExceededError as exc:
            # callers (and the CLI) handle ConnectionError; the exhausted
            # budget re-raises the underlying refusal, not the wrapper
            raise exc.last from exc
        try:
            conn.request(method, path, body=payload, headers=headers)
            return conn, conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        conn, response = self._request(method, path, body)
        try:
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServiceError(
                    data.get("error", f"HTTP {response.status} on {path}"))
            return data
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")

    def stream(self, path: str, body: dict) -> Iterator[dict]:
        """POST and yield each NDJSON event as the service emits it."""
        conn, response = self._request("POST", path, body)
        try:
            if response.status >= 400:
                data = json.loads(response.read() or b"{}")
                raise ServiceError(
                    data.get("error", f"HTTP {response.status} on {path}"))
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def _fold(self, path: str, body: dict,
              on_entry: Callable[[dict], None] | None = None) -> ServiceResponse:
        folded = ServiceResponse(payload={})
        final = None
        for event in self.stream(path, body):
            kind = event.get("event")
            if kind == "meta":
                folded.fingerprint = event.get("fingerprint", "")
                folded.role = event.get("role", "")
            elif kind == "entry":
                folded.entries.append(event)
                if on_entry is not None:
                    on_entry(event)
            elif kind == "report":
                final = event
            elif kind == "error":
                raise ServiceError(event.get("message", "service error"))
        if final is None:
            raise ServiceError(f"stream from {path} ended without a report")
        folded.payload = final["payload"]
        return folded

    # ------------------------------------------------------------------
    def cost(self, design: str, *, device: str = "stratix-v",
             grid=(24, 24, 24), iterations: int = 1000,
             pattern: str = "contiguous", name: str = "design") -> ServiceResponse:
        """Cost one ``.tirl`` design variant."""
        return self._fold("/cost", {
            "design": design,
            "device": device,
            "grid": list(grid),
            "iterations": iterations,
            "pattern": pattern,
            "name": name,
        })

    def suite(self, spec: dict,
              on_entry: Callable[[dict], None] | None = None) -> ServiceResponse:
        """Run (or join) a suite sweep; entries stream as points complete."""
        return self._fold("/suite", spec, on_entry=on_entry)
