"""Pool-worker spans ride home beside the worker counts and re-parent.

The acceptance bar of the tentpole: a traced multiprocess sweep produces
ONE valid trace in which every worker's span tree hangs off the parent's
``backend.pool.batch`` span, under one trace id — and the span transport
never contaminates the merged worker cache stats.
"""

from __future__ import annotations

import pytest

from repro.explore import (
    DesignSpace,
    ExplorationEngine,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.kernels import get_kernel
from repro.obs.trace import (
    Tracer,
    install_tracer,
    load_trace,
    uninstall_tracer,
)


def _space(lanes=(1, 2, 4, 8)) -> DesignSpace:
    return DesignSpace(kernel=get_kernel("sor"), grid=(8, 8, 8),
                       iterations=10, lanes=list(lanes))


def _traced_sweep(path, backend):
    install_tracer(Tracer(path))
    try:
        return ExplorationEngine(backend).explore(_space())
    finally:
        uninstall_tracer()


class TestPoolRoundTrip:
    def test_worker_spans_join_the_parent_trace(self, tmp_path):
        path = tmp_path / "pool.ndjson"
        sweep = _traced_sweep(path, ProcessPoolBackend(max_workers=2))
        assert sweep.evaluated == 4

        header, records = load_trace(path)  # load_trace validates
        sites = {}
        for record in records:
            sites.setdefault(record["site"], []).append(record)

        assert {r["trace"] for r in records} == {header["trace_id"]}
        (pool_batch,) = sites["backend.pool.batch"]
        assert pool_batch["attrs"]["workers"] == 2
        # every worker batch re-parented under the pool batch span, from
        # a different pid than the parent's
        assert sites["worker.batch"], "no worker spans came home"
        for batch in sites["worker.batch"]:
            assert batch["parent"] == pool_batch["span"]
        worker_pids = {r["pid"] for r in sites["worker.batch"]}
        assert pool_batch["pid"] not in worker_pids
        # the per-point pipeline spans nest under their worker batch
        batch_ids = {r["span"] for r in sites["worker.batch"]}
        assert sites["pipeline.cost"]
        for cost in sites["pipeline.cost"]:
            assert cost["parent"] in batch_ids

    def test_span_transport_leaves_summed_stats_clean(self, tmp_path):
        path = tmp_path / "pool.ndjson"
        sweep = _traced_sweep(path, ProcessPoolBackend(max_workers=2))
        # spans ride beside the shipped counts, never inside the stats
        assert set(sweep.stats) == {
            "parse", "variant", "resource", "calibration", "family",
            "family_fallbacks", "disk", "stage_seconds", "resilience"}
        assert sum(sweep.stats["variant"]) == sweep.evaluated

    def test_untraced_pool_run_ships_no_spans(self, tmp_path):
        sweep = ExplorationEngine(ProcessPoolBackend(max_workers=2)).explore(
            _space())
        assert sweep.evaluated == 4

    def test_serial_backend_traces_without_worker_spans(self, tmp_path):
        path = tmp_path / "serial.ndjson"
        _traced_sweep(path, SerialBackend())
        _, records = load_trace(path)
        sites = {r["site"] for r in records}
        assert "backend.serial.batch" in sites
        assert "worker.batch" not in sites
        assert len({r["pid"] for r in records}) == 1

    def test_traced_and_untraced_pool_reports_identical(self, tmp_path):
        def model_fields(sweep):
            # estimation_seconds is wall clock — nondeterministic between
            # ANY two runs; every model-derived field must be identical
            reports = [e.report.as_dict() for e in sweep.entries]
            for report in reports:
                report.pop("estimation_seconds", None)
            return reports

        clean = ExplorationEngine(ProcessPoolBackend(max_workers=2)).explore(
            _space())
        traced = _traced_sweep(tmp_path / "p.ndjson",
                               ProcessPoolBackend(max_workers=2))
        assert model_fields(traced) == model_fields(clean)


class TestOptimizerSpans:
    def test_optimizer_rounds_nest_under_dse(self, tmp_path):
        from repro.suite import SuiteConfig, run_dse

        path = tmp_path / "dse.ndjson"
        install_tracer(Tracer(path))
        try:
            run_dse(SuiteConfig.tiny(kernels=("sor",)), "fmax")
        finally:
            uninstall_tracer()
        _, records = load_trace(path)
        sites = {}
        for record in records:
            sites.setdefault(record["site"], []).append(record)
        assert sites.get("dse.run")
        dse_ids = {r["span"] for r in sites["dse.run"]}
        assert sites.get("optimizer.round")
        for rnd in sites["optimizer.round"]:
            assert rnd["parent"] in dse_ids
        assert all("note" not in r.get("attrs", {}) or r["attrs"]["note"]
                   for r in sites["optimizer.round"])
