"""A traced sweep is one valid span tree, and tracing changes nothing.

Every span of a serial sweep shares the tracer's trace id.  A whole
space is one ``backend.serial.space`` span carrying its point, group and
group-miss counts, with no per-point spans; a job batch is one
``backend.serial.batch`` span, with no per-point spans either.  A traced
sweep's reports and stats are the untraced sweep's.
"""

from __future__ import annotations

from repro.compiler.pipeline import clear_calibration_cache
from repro.explore import (
    DesignSpace,
    ExplorationEngine,
    SerialBackend,
    build_jobs,
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


def _traced_sweep(path, backend, cost=None):
    install_tracer(Tracer(path))
    try:
        engine = ExplorationEngine(backend)
        return (cost or engine.explore)(_space())
    finally:
        uninstall_tracer()


def _sites(records) -> dict:
    sites: dict = {}
    for record in records:
        sites.setdefault(record["site"], []).append(record)
    return sites


def _descends_from(record, ancestor, records) -> bool:
    by_id = {r["span"]: r for r in records}
    parent = record.get("parent")
    while parent is not None:
        if parent == ancestor["span"]:
            return True
        parent = by_id[parent].get("parent") if parent in by_id else None
    return False


class TestSerialSweepTrace:
    def test_one_span_per_space_with_aggregate_counts(self, tmp_path):
        path = tmp_path / "serial.ndjson"
        clear_calibration_cache()   # every group of the space is built
        sweep = _traced_sweep(path, SerialBackend())
        assert sweep.evaluated == 4

        header, records = load_trace(path)  # load_trace validates
        sites = _sites(records)
        assert {r["trace"] for r in records} == {header["trace_id"]}
        (space,) = sites["backend.serial.space"]
        assert space["attrs"] == {"kernel": "sor", "points": 4, "groups": 4,
                                  "group_misses": 4}
        assert "pipeline.cost" not in sites
        assert "backend.serial.batch" not in sites
        # the group builds' stage spans nest under the space span
        for record in records:
            if record is not space:
                assert _descends_from(record, space, records), record["site"]
        assert len({r["pid"] for r in records}) == 1

    def test_warm_groups_are_counted_as_hits(self, tmp_path):
        ExplorationEngine(SerialBackend()).explore(_space())
        _traced_sweep(tmp_path / "warm.ndjson", SerialBackend())
        _, records = load_trace(tmp_path / "warm.ndjson")
        (space,) = _sites(records)["backend.serial.space"]
        assert (space["attrs"]["groups"], space["attrs"]["group_misses"]) == (4, 0)

    def test_a_batch_is_one_span_without_point_spans(self, tmp_path):
        path = tmp_path / "batch.ndjson"
        backend = SerialBackend()
        sweep = _traced_sweep(
            path, backend,
            lambda space: ExplorationEngine(backend).cost_many(build_jobs(space)))
        assert sweep.evaluated == 4
        _, records = load_trace(path)
        sites = _sites(records)
        (batch,) = sites["backend.serial.batch"]
        assert batch["attrs"]["jobs"] == 4
        assert "pipeline.cost" not in sites
        # cost_many is one backend batch, not an optimizer loop
        assert "optimizer.round" not in sites
        # the batch still counts one variant lookup per point
        assert sum(sweep.stats["variant"]) == sweep.evaluated

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
