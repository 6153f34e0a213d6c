"""Structured tracing with a context-manager API and NDJSON export.

A trace is a tree of *spans*.  Every span carries a trace id, its own span
id, an optional parent span id, a dotted *site* name (``pipeline.parse``,
``backend.serial.batch``, ``service.request`` ...), free-form attributes, a
monotonic start stamp, and a duration.  Spans are emitted on exit as
``repro-trace/1`` NDJSON lines: the first line of a trace file is a header
record carrying the schema and the default trace id; each following line
is one span.

Activation is ambient: ``install_tracer`` (or ``activate_from_env`` keyed
on ``TYBEC_TRACE=/path``) installs a process-wide tracer, and the
module-level :func:`span` helper becomes live.  When no tracer is
installed, :func:`span` returns a shared null context whose cost is a
single global read, so instrumented hot paths stay effectively free.

A *collecting* tracer (``collect=True``) buffers its span records in
memory for :meth:`Tracer.drain` instead of writing a file; with
``root_parent`` its root spans hang off a span id owned elsewhere (a
benchmark harness's own span tree, say).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Sequence

TRACE_SCHEMA = "repro-trace/1"
TRACE_ENV = "TYBEC_TRACE"

#: Required keys for every span record in a ``repro-trace/1`` file.
_SPAN_KEYS = ("trace", "span", "site", "start", "duration", "pid")

# Ambient (trace_id, span_id) of the innermost open span.  ContextVars are
# per-thread (new threads start from an empty context), which is exactly
# the scoping span nesting needs.
_CURRENT: ContextVar[tuple[str, str] | None] = ContextVar(
    "tybec_current_span", default=None
)

_IDS = itertools.count(1)


def new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    # pid prefix keeps ids unique across processes; the counter `next`
    # is atomic under the GIL.
    return f"{os.getpid():x}-{next(_IDS):x}"


class _NullSpanContext:
    """Shared no-op context returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpanContext()


class Span:
    __slots__ = ("trace_id", "span_id", "parent_id", "site", "attrs", "start", "duration", "pid")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        site: str,
        attrs: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.site = site
        self.attrs = attrs
        self.start = time.perf_counter()
        self.duration: float | None = None
        self.pid = os.getpid()

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "site": self.site,
            "start": round(self.start, 9),
            "duration": round(self.duration or 0.0, 9),
            "pid": self.pid,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _SpanContext:
    __slots__ = ("_tracer", "_site", "_attrs", "_trace_id", "_token", "span")

    def __init__(
        self,
        tracer: "Tracer",
        site: str,
        attrs: dict[str, Any],
        trace_id: str | None,
    ) -> None:
        self._tracer = tracer
        self._site = site
        self._attrs = attrs
        self._trace_id = trace_id
        self._token = None
        self.span: Span | None = None

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        if self._trace_id is not None:
            # Explicit trace id (e.g. adopted from an X-Tybec-Trace
            # header) starts a fresh root within that trace.
            trace_id, parent_id = self._trace_id, None
        elif parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = self._tracer.trace_id, self._tracer.root_parent
        sp = Span(trace_id, _new_span_id(), parent_id, self._site, self._attrs)
        self.span = sp
        self._token = _CURRENT.set((trace_id, sp.span_id))
        return sp

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        sp = self.span
        assert sp is not None and self._token is not None
        sp.duration = time.perf_counter() - sp.start
        if exc_type is not None:
            sp.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        _CURRENT.reset(self._token)
        self._tracer.emit(sp.as_dict())
        return False


class Tracer:
    """Span factory plus sink (NDJSON file, in-memory collection, or both).

    ``path`` opens (truncates) an NDJSON file and writes the header line.
    ``collect=True`` buffers span records in memory for :meth:`drain`.
    ``root_parent`` re-parents this tracer's root spans under a span id
    owned by someone else, so a collected tree hangs off the caller's.
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        *,
        trace_id: str | None = None,
        collect: bool = False,
        root_parent: str | None = None,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.root_parent = root_parent
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._fh = None
        self._pending: list[dict[str, Any]] = []
        self._collected: list[dict[str, Any]] | None = None
        self.spans_emitted = 0
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write_line({"schema": TRACE_SCHEMA, "trace_id": self.trace_id})
        if collect or self.path is None:
            self._collected = []

    def span(
        self,
        site: str,
        attrs: dict[str, Any] | None = None,
        *,
        trace_id: str | None = None,
    ) -> _SpanContext:
        return _SpanContext(self, site, attrs if attrs is not None else {}, trace_id)

    def _write_line(self, record: dict[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    def emit(self, record: dict[str, Any]) -> None:
        # Hot path: serialization is deferred to flush()/close() so a span
        # exit costs one lock and one list append.
        with self._lock:
            self.spans_emitted += 1
            if self._collected is not None:
                self._collected.append(record)
            if self._fh is not None:
                self._pending.append(record)

    def drain(self) -> list[dict[str, Any]]:
        with self._lock:
            collected, self._collected = (self._collected or []), []
            return collected

    def _flush_locked(self) -> None:
        if self._fh is None:
            return
        for record in self._pending:
            self._write_line(record)
        self._pending.clear()
        self._fh.flush()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._flush_locked()
                self._fh.close()
                self._fh = None


_ACTIVE: Tracer | None = None
_ACTIVE_LOCK = threading.Lock()


def current_tracer() -> Tracer | None:
    return _ACTIVE


def current_trace_id() -> str | None:
    """Trace id of the innermost open span, else the installed tracer's."""
    ctx = _CURRENT.get()
    if ctx is not None:
        return ctx[0]
    tracer = _ACTIVE
    return tracer.trace_id if tracer is not None else None


def install_tracer(tracer: Tracer) -> Tracer:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Tracer | None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        tracer, _ACTIVE = _ACTIVE, None
    if tracer is not None:
        tracer.close()
    return tracer


def activate_from_env(environ: dict[str, str] | None = None) -> Tracer | None:
    """Install a file-writing tracer if ``TYBEC_TRACE`` names a path.

    Idempotent: an already-installed tracer wins.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    env = environ if environ is not None else os.environ
    path = env.get(TRACE_ENV)
    if not path:
        return None
    return install_tracer(Tracer(path))


def span(site: str, _trace_id: str | None = None, **attrs: Any) -> Any:
    """Ambient span context: no-op (yields ``None``) when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(site, attrs, trace_id=_trace_id)


# ---------------------------------------------------------------------------
# Reading, validation, and summarization


def load_trace(path: str | os.PathLike[str]) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a ``repro-trace/1`` NDJSON file into (header, span records)."""
    header: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if header is None:
                header = record
            else:
                records.append(record)
    if header is None:
        raise ValueError(f"{path}: empty trace file")
    validate_trace(header, records)
    return header, records


def _field_kind(key: str, value: Any) -> str | None:
    """What a span field must be, or None when ``value`` already is."""
    if key in ("start", "duration"):
        try:   # an int beyond the float range is not a finite number
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:
            ok = False
        return None if ok else "a finite number"
    if key == "pid":
        ok = isinstance(value, int) and not isinstance(value, bool)
        return None if ok else "an int"
    if key == "parent":
        return None if value is None or isinstance(value, str) else "a string or null"
    return None if isinstance(value, str) else "a string"


def validate_trace(header: dict[str, Any], records: Sequence[dict[str, Any]]) -> None:
    """Raise ``ValueError`` unless (header, records) is a valid trace:
    the header and every record are objects, the header's ``trace_id`` is
    a non-empty string and each span field has its type (strings
    ``trace``/``span``/``site``, finite ``start`` and ``duration``, an int
    ``pid``, a string-or-null ``parent``)."""
    if not isinstance(header, dict):
        raise ValueError(f"trace header is not an object: {header!r}")
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unexpected trace schema: {header.get('schema')!r}")
    trace_id = header.get("trace_id")
    if not (isinstance(trace_id, str) and trace_id):
        raise ValueError(
            f"trace header trace_id must be a non-empty string, got {trace_id!r}")
    span_ids = set()
    for record in records:
        if not isinstance(record, dict):
            raise ValueError(f"span record is not an object: {record!r}")
        for key in _SPAN_KEYS:
            if key not in record:
                raise ValueError(f"span record missing {key!r}: {record!r}")
        for key in (*_SPAN_KEYS, "parent"):
            kind = _field_kind(key, record.get(key))
            if kind is not None:
                raise ValueError(f"span {key!r} must be {kind}: {record!r}")
        if record["duration"] < 0:
            raise ValueError(f"negative span duration: {record!r}")
        if record["span"] in span_ids:
            raise ValueError(f"duplicate span id: {record['span']!r}")
        span_ids.add(record["span"])
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent not in span_ids:
            raise ValueError(
                f"span {record['span']!r} references unknown parent {parent!r}"
            )


def summarize_trace(
    records: Sequence[dict[str, Any]], *, top: int = 10
) -> dict[str, Any]:
    """Aggregate per-site totals, top-k slow spans, and the critical path."""
    sites: dict[str, dict[str, Any]] = {}
    for record in records:
        entry = sites.setdefault(
            record["site"], {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        entry["count"] += 1
        entry["total_seconds"] += record["duration"]
        entry["max_seconds"] = max(entry["max_seconds"], record["duration"])

    slowest = sorted(records, key=lambda r: r["duration"], reverse=True)[:top]

    by_id = {r["span"]: r for r in records}
    children: dict[str | None, list[dict[str, Any]]] = {}
    for record in records:
        parent = record.get("parent")
        children.setdefault(parent if parent in by_id else None, []).append(record)

    critical: list[dict[str, Any]] = []
    roots = children.get(None, [])
    if roots:
        node = max(roots, key=lambda r: r["duration"])
        while node is not None:
            critical.append(
                {"site": node["site"], "span": node["span"], "duration": node["duration"]}
            )
            kids = children.get(node["span"])
            node = max(kids, key=lambda r: r["duration"]) if kids else None

    return {
        "span_count": len(records),
        "trace_ids": sorted({r["trace"] for r in records}),
        "wall_seconds": round(sum(r["duration"] for r in roots), 9),
        "sites": {
            site: {
                "count": entry["count"],
                "total_seconds": round(entry["total_seconds"], 9),
                "max_seconds": round(entry["max_seconds"], 9),
            }
            for site, entry in sorted(sites.items())
        },
        "slowest": [
            {"site": r["site"], "span": r["span"], "duration": r["duration"]}
            for r in slowest
        ],
        "critical_path": critical,
    }


def format_trace_summary(summary: dict[str, Any]) -> str:
    """Render a :func:`summarize_trace` result as fixed-width text."""
    lines = [
        f"spans: {summary['span_count']}  traces: {len(summary['trace_ids'])}"
        f"  root wall: {summary['wall_seconds'] * 1e3:.3f} ms",
        "",
        f"{'site':<28} {'count':>7} {'total ms':>12} {'max ms':>12}",
    ]
    for site, entry in summary["sites"].items():
        lines.append(
            f"{site:<28} {entry['count']:>7}"
            f" {entry['total_seconds'] * 1e3:>12.3f}"
            f" {entry['max_seconds'] * 1e3:>12.3f}"
        )
    if summary["critical_path"]:
        lines.append("")
        lines.append("critical path:")
        for depth, hop in enumerate(summary["critical_path"]):
            lines.append(
                f"  {'  ' * depth}{hop['site']}  {hop['duration'] * 1e3:.3f} ms"
            )
    if summary["slowest"]:
        lines.append("")
        lines.append("slowest spans:")
        for record in summary["slowest"]:
            lines.append(
                f"  {record['site']:<28} {record['duration'] * 1e3:>12.3f} ms"
                f"  ({record['span']})"
            )
    return "\n".join(lines)
