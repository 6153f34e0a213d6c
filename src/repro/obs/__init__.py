"""Unified observability: tracing, metrics, structured logging, profiling.

This package is deliberately stdlib-only and imports nothing from the rest
of ``repro`` but the lazy-export helper, so every layer (compiler, cost,
explore, flows, service) can instrument itself without creating import
cycles.

Three pillars:

- ``repro.obs.trace`` — structured spans with a context-manager API,
  exported as ``repro-trace/1`` NDJSON (``TYBEC_TRACE=/path`` or
  ``tybec --trace``).
- ``repro.obs.metrics`` — Prometheus text exposition of the metric
  families each stat surface declares where it counts, plus the
  :class:`MetricsRegistry` that owns the request-latency histogram.
- ``repro.obs.logs`` — run-id and trace-id correlated stdlib logging.
- ``repro.obs.profile`` — opt-in per-stage cProfile dumps
  (``TYBEC_PROFILE_DIR=/path``).

The cardinal invariant: nothing in this package ever writes into a
canonical report payload.  Spans, metrics, and logs ride on side
channels only, so golden reports stay byte-identical whether or not
telemetry is enabled.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.logs": ("get_logger", "log_event", "setup_logging"),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.profile": ("PROFILE_ENV", "maybe_profile"),
    "repro.obs.trace": (
        "TRACE_ENV", "TRACE_SCHEMA", "Tracer",
        "activate_from_env", "current_trace_id", "current_tracer",
        "format_trace_summary", "install_tracer", "load_trace", "new_trace_id",
        "span", "summarize_trace", "uninstall_tracer", "validate_trace",
    ),
})
