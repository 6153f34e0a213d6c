"""A traced sweep is one valid span tree, and tracing changes nothing.

Every span of a serial sweep shares the tracer's trace id; the
per-point ``pipeline.cost`` spans hang off the ``backend.serial.batch``
span that costs them, and a traced sweep's reports and stats are the
untraced sweep's.
"""

from __future__ import annotations

from repro.explore import (
    DesignSpace,
    ExplorationEngine,
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


def _sites(records) -> dict:
    sites: dict = {}
    for record in records:
        sites.setdefault(record["site"], []).append(record)
    return sites


class TestSerialSweepTrace:
    def test_point_spans_nest_under_the_batch_span(self, tmp_path):
        path = tmp_path / "serial.ndjson"
        sweep = _traced_sweep(path, SerialBackend())
        assert sweep.evaluated == 4

        header, records = load_trace(path)  # load_trace validates
        sites = _sites(records)
        assert {r["trace"] for r in records} == {header["trace_id"]}
        (batch,) = sites["backend.serial.batch"]
        assert batch["attrs"]["jobs"] == 4
        assert len(sites["pipeline.cost"]) == 4
        for cost in sites["pipeline.cost"]:
            assert cost["parent"] == batch["span"]
        assert len({r["pid"] for r in records}) == 1

    def test_tracing_leaves_the_stats_clean(self, tmp_path):
        sweep = _traced_sweep(tmp_path / "serial.ndjson", SerialBackend())
        # spans ride on their own channel, never inside the stats
        assert set(sweep.stats) == {
            "parse", "variant", "resource", "calibration", "family",
            "family_fallbacks", "disk", "stage_seconds"}
        assert sum(sweep.stats["variant"]) == sweep.evaluated

    def test_traced_and_untraced_reports_identical(self, tmp_path):
        clean = ExplorationEngine(SerialBackend()).explore(_space())
        traced = _traced_sweep(tmp_path / "s.ndjson", SerialBackend())
        assert traced.canonical_dicts() == clean.canonical_dicts()


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
