"""Per-layer spans for the traced run, recorded around public calls.

The program's own ``repro.obs`` tracer stays uninstalled: the spans here
come from wrappers this benchmark installs around each layer's public
functions, only in the traced run.  They use the program's
``repro-trace/1`` record format (``repro.obs.trace.Tracer`` in collect
mode), so ``tybec trace summarize`` reads the written file and
``validate_trace`` checks it.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import statistics
from pathlib import Path

#: layer group -> (module, attribute path, span site)
SITES = {
    "cost": (
        ("repro.compiler.pipeline", "EstimationPipeline.calibrate",
         "compiler.pipeline.calibrate"),
        ("repro.compiler.pipeline", "EstimationPipeline.cost",
         "compiler.pipeline.cost"),
        ("repro.compiler.pipeline", "parse_module", "ir.parser.parse"),
        ("repro.explore.engine", "ExplorationEngine.cost_many",
         "explore.engine.cost_many"),
        ("repro.explore.dense", "DenseBackend.explore_space",
         "explore.dense.sweep"),
        ("repro.explore.dense", "DenseSweep.materialize_all",
         "explore.dense.materialize"),
    ),
    "suite": (
        ("repro.suite.runner", "build_suite_report", "suite.runner.build"),
        ("repro.suite.report", "SuiteReport.to_json", "suite.report.encode"),
        ("repro.suite.report", "SuiteReport.write", "suite.report.write"),
    ),
    "service": (
        ("repro.service.server", "build_suite_report", "suite.runner.build"),
        ("repro.service.server", "ExplorationService.run_suite",
         "service.run_suite"),
        ("repro.service.server", "canonical_json_line",
         "service.event_encode"),
        ("repro.service.server", "ExplorationService.prometheus_metrics",
         "obs.prometheus_render"),
        ("repro.service.server", "_ServiceHandler.do_GET", "service.handle"),
        ("repro.service.server", "_ServiceHandler.do_POST", "service.handle"),
    ),
    "flows": (
        ("repro.flows.flows", "parse_module_text", "flows.verilog.parse"),
        ("repro.flows.flows", "lint_module", "flows.netlist.lint"),
        ("repro.flows.flows", "elaborate", "flows.netlist.elaborate"),
        ("repro.flows.flows", "reference_outputs",
         "flows.refmodel.reference"),
        ("repro.flows.flows", "simulate_stream", "flows.rtlsim.simulate"),
    ),
}

#: request kinds whose transport time the traced `serve` run reports
TRANSPORT_KINDS = ("cold", "replay", "dense", "cost", "metrics")

#: the layer groups each workload's calls pass through
WORKLOAD_GROUPS = {
    "cli": ("cost", "suite"),
    "sweep": ("cost", "suite"),
    "serve": ("cost", "suite", "service"),
    "verify": ("flows",),
}


def _annotate(site: str, args: tuple, result, attrs: dict) -> None:
    """Counts recorded on the span where the work happens."""
    if site == "explore.dense.sweep":
        attrs["points"] = len(args[1])
    elif site == "suite.report.encode":
        attrs["bytes"] = len(result.encode())
    elif site == "flows.rtlsim.simulate":
        attrs["items"] = result.n_items
        attrs["cycles"] = result.cycles


def _wrap(fn, site: str, tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(site) as sp:
            result = fn(*args, **kwargs)
            _annotate(site, args, result, sp.attrs)
            return result
    traced.traced_site = site
    return traced


def install(tracer, groups) -> None:
    """Wrap every site of ``groups`` so its calls record spans on ``tracer``.

    A site that no longer exists raises, so a renamed layer shows up as a
    failed traced run rather than as a silent zero.
    """
    for group in groups:
        for module_name, path, site in SITES[group]:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            if not hasattr(fn, "traced_site"):   # bound from a wrapped module
                setattr(owner, name, _wrap(fn, site, tracer))


def span_record(trace_id: str, span_id: str, site: str, start: float, end: float,
                parent: str | None = None, attrs: dict | None = None) -> dict:
    """A ``repro-trace/1`` span record for an interval timed by hand."""
    record = {"trace": trace_id, "span": span_id, "site": site, "start": round(start, 9),
              "duration": round(max(0.0, end - start), 9), "pid": os.getpid()}
    if parent:
        record["parent"] = parent
    if attrs:
        record["attrs"] = attrs
    return record


# ----------------------------------------------------------------------
# Trace files and per-layer figures
# ----------------------------------------------------------------------
def write_trace(path: Path, trace_id: str, records: list[dict]) -> None:
    """Write and re-read a ``repro-trace/1`` file; reading validates it."""
    from repro.obs.trace import TRACE_SCHEMA, load_trace

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": TRACE_SCHEMA, "trace_id": trace_id},
                            sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
    load_trace(path)


def adopt_by_time(ops: list[dict], records: list[dict]) -> None:
    """Parent each root span of another process under the op span whose
    interval contains its start (both processes stamp ``perf_counter``,
    the system-wide monotonic clock)."""
    spans = sorted(ops, key=lambda r: r["start"])
    starts = [r["start"] for r in spans]
    for record in records:
        if record.get("parent") is not None:
            continue
        at = bisect.bisect_right(starts, record["start"]) - 1
        if at >= 0 and record["start"] <= spans[at]["start"] + spans[at]["duration"]:
            record["parent"] = spans[at]["span"]
            record["trace"] = spans[at]["trace"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(records: list[dict]) -> dict:
    """Per-layer figures of one traced phase.

    ``records`` hold the ``op`` spans plus every layer span below them.
    Self time is a span's duration minus its children's.  Figures are
    per op (medians over the ops that reach the layer) unless named a
    count or a rate.
    """
    by_id = {r["span"]: r for r in records}
    children: dict[str, list[dict]] = {}
    for record in records:
        if record.get("parent") in by_id:
            children.setdefault(record["parent"], []).append(record)

    def covered(parent: dict, child: dict) -> float:
        # a span of another process may outlive the op it was adopted by
        end = min(parent["start"] + parent["duration"], child["start"] + child["duration"])
        return max(0.0, end - max(parent["start"], child["start"]))

    self_s = {r["span"]: r["duration"] - sum(covered(r, c) for c in children.get(r["span"], ()))
              for r in records}

    ops = [r for r in records if r["site"] == "op"]
    per_op: list[dict[str, float]] = []
    per_op_counts: list[dict[str, float]] = []
    calls: dict[str, list[dict]] = {}
    for op in ops:
        totals: dict[str, float] = {}
        counts: dict[str, float] = {}
        stack = list(children.get(op["span"], ()))
        while stack:
            record = stack.pop()
            site = record["site"]
            totals[site] = totals.get(site, 0.0) + self_s[record["span"]]
            counts[site] = counts.get(site, 0) + 1
            for key, value in record.get("attrs", {}).items():
                if isinstance(value, (int, float)):
                    counts[f"{site}:{key}"] = counts.get(f"{site}:{key}", 0) + value
            calls.setdefault(site, []).append(record)
            stack.extend(children.get(record["span"], ()))
        per_op.append(totals)
        per_op_counts.append(counts)

    def op_median_ms(site: str) -> float:
        return _median(t[site] * 1e3 for t in per_op if site in t)

    def call_median_ms(site: str) -> float:
        return _median(r["duration"] * 1e3 for r in calls.get(site, ()))

    def per_op_mean(key: str) -> float:
        hits = [c[key] for c in per_op_counts if key in c]
        return sum(hits) / len(hits) if hits else 0.0

    cost_calls = calls.get("compiler.pipeline.cost", [])
    dense_points = sum(r.get("attrs", {}).get("points", 0)
                       for r in calls.get("explore.dense.sweep", ()))
    dense_seconds = sum(r["duration"] for site in ("explore.dense.sweep",
                                                   "explore.dense.materialize")
                        for r in calls.get(site, ()))
    walls = [op["duration"] for op in ops]
    remainders = [self_s[op["span"]] for op in ops]
    median_wall = _median(walls)
    median_remainder = _median(remainders)

    transport: dict[str, list[float]] = {}
    for op in ops:
        if "service.handle" in {c["site"] for c in children.get(op["span"], ())}:
            kind = op.get("attrs", {}).get("kind", "op")
            transport.setdefault(kind, []).append(self_s[op["span"]] * 1e3)
    roles = [op["attrs"]["role"] for op in ops if "role" in op.get("attrs", {})]

    figures = {
        "compiler.pipeline.calibrate_ms": op_median_ms("compiler.pipeline.calibrate"),
        "compiler.pipeline.cost_us": _median(r["duration"] * 1e6 for r in cost_calls),
        "compiler.pipeline.cost_calls": per_op_mean("compiler.pipeline.cost"),
        "explore.engine.self_ms": op_median_ms("explore.engine.cost_many"),
        "explore.dense.points_per_s": dense_points / dense_seconds if dense_seconds else 0.0,
        "suite.runner.build_ms": call_median_ms("suite.runner.build"),
        "suite.report.encode_ms": call_median_ms("suite.report.encode"),
        "suite.report.bytes": _median(r.get("attrs", {}).get("bytes", 0)
                                      for r in calls.get("suite.report.encode", ())),
        "suite.report.write_ms": _median(self_s[r["span"]] * 1e3
                                         for r in calls.get("suite.report.write", ())),
        "service.run_suite_ms": call_median_ms("service.run_suite"),
        "service.event_encode_ms": op_median_ms("service.event_encode"),
        "service.events": per_op_mean("service.event_encode"),
        "service.replay_ratio": roles.count("replay") / len(roles) if roles else 0.0,
        "obs.prometheus_render_ms": call_median_ms("obs.prometheus_render"),
        "ir.parser.parse_ms": call_median_ms("ir.parser.parse"),
        "flows.verilog.parse_ms": op_median_ms("flows.verilog.parse"),
        "flows.netlist.lint_ms": op_median_ms("flows.netlist.lint"),
        "flows.netlist.elaborate_ms": op_median_ms("flows.netlist.elaborate"),
        "flows.refmodel.reference_ms": op_median_ms("flows.refmodel.reference"),
        "flows.rtlsim.simulate_ms": op_median_ms("flows.rtlsim.simulate"),
        "flows.rtlsim.items": per_op_mean("flows.rtlsim.simulate:items"),
        "flows.rtlsim.cycles": per_op_mean("flows.rtlsim.simulate:cycles"),
        "cli.main_self_ms": op_median_ms("cli.main"),
        "cli.exit_ms": op_median_ms("cli.exit"),
        "service.handle_self_ms": op_median_ms("service.handle"),
        "trace.op_wall_ms": median_wall * 1e3,
        "trace.remainder_ms": median_remainder * 1e3,
        "trace.attributed_share": 1.0 - median_remainder / median_wall if median_wall else 0.0,
        "trace.spans": float(len(records)),
    }
    for kind in TRANSPORT_KINDS:
        figures[f"service.transport_ms.{kind}"] = _median(transport.get(kind, ()))
    return figures
