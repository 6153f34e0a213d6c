"""Workload-suite throughput benchmark -> BENCH_suite.json.

Times the six-kernel workload suite end to end — the "cost every scenario
we have" batch the golden harness and future speed PRs lean on — and
records the performance trajectory of the estimation hot path as a CI
artifact:

* **baseline** — the full O(points) path (lane scaling and persistence
  disabled): every lane count of every kernel pays parse → analyze →
  schedule → estimate.  This is what the sweep loop cost before the
  lane-scaling PR (the in-tree baseline also carries this PR's shared
  optimisations, so the recorded speedups *understate* the gain over the
  previous commit).
* **cold** — lane scaling on, persistent store empty: one full analysis
  per design family, every other lane count derived analytically.
* **warm** — a cold in-process cache against the now-populated store:
  what any new process (CI rerun, next CLI call) pays.

All three scenarios must produce byte-identical canonical reports — that
equality, together with the golden files, is what licenses the shortcut.

``per_point_cost`` records the cold per-point ``EstimationPipeline.cost``
time against the formula floor measured in the same process, and gates
their ratio.  ``encode`` records the 468-point report's encode through
the row encoder (``SuiteReport.to_json``) against the reference dump of
the fully expanded payload, and gates the speedup.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager

import pytest

from repro.compiler.pipeline import (
    FeasibilityStage,
    ResourceStage,
    clear_calibration_cache,
)
from repro.cost.report import CostReport
from repro.cost.throughput import EKITParameters, estimate_throughput
from repro.explore.engine import SerialBackend, canonical_report_dict
from repro.kernels import kernel_names
from repro.suite import SuiteConfig, WorkloadSuite
from repro.suite.report import canonical_json, canonicalize

#: the paper's per-variant estimation envelope (~0.3 s/variant)
PAPER_TYTRA_SECONDS = 0.3

#: the acceptance grid: every kernel on its full 24^3-class grid with the
#: complete lane axis up to 64 and a clock axis — the lane-heavy sweep
#: shape of Figure 15, where O(families) beats O(points) hardest
FULL_GRID_CONFIG = SuiteConfig(
    max_lanes=64,
    clocks_mhz=(150.0, 200.0, 250.0),
    iterations=10,
    grids={k: (24, 24, 24) for k in
           ("sor", "hotspot", "lavamd", "nw", "matmul", "conv2d")},
)

#: conservative in-tree gates (the recorded ratios run higher; see
#: BENCH_suite.json and the warm-vs-cold CI job for the 3x/5x evidence)
MIN_COLD_SPEEDUP = 2.0
MIN_WARM_SPEEDUP = 3.0

#: cold per-point ``cost`` over the formula floor: trials, and the gate
#: on the median of the per-trial ratios.  A cold sweep resolves one cost
#: group per three points (the clock axis), and resolving one reads the
#: family from the disk store and derives its structure and resource
#: estimate: the ratio measures 2.2-2.6 on a shared 2-vCPU VM (4.4 before
#: cost groups), so the gate leaves room for that machine's noise.  Both
#: sides are timed in this thread's CPU time, which other processes on a
#: busy machine do not inflate.
FLOOR_TRIALS = 20
MAX_FLOOR_RATIO = 3.0

#: the 468-point ``suite run`` grid (perfbench ``cli``, the CLI golden):
#: every kernel's default grid, lanes up to 64, forms A/B/C, three clocks
ENCODE_CONFIG = SuiteConfig(max_lanes=64, forms=("A", "B", "C"),
                            clocks_mhz=(150.0, 200.0, 250.0))

#: encode trials (interleaved reference/row pairs), and the speedup gate;
#: the row encoder measures 5-7x on a shared 2-vCPU VM
ENCODE_TRIALS = 9
MIN_ENCODE_SPEEDUP = 4.0


def _run_best_of(config, monkeypatch, *, scaling, cache_dir, repeats=2,
                 fresh_dir=False):
    monkeypatch.setenv("TYBEC_LANE_SCALING", "1" if scaling else "0")
    monkeypatch.setenv("TYBEC_CACHE_DIR", cache_dir)
    best = None
    for _ in range(repeats):
        clear_calibration_cache()
        if fresh_dir and cache_dir not in ("off", ""):
            shutil.rmtree(cache_dir, ignore_errors=True)
        run = WorkloadSuite(config).run()
        if best is None or run.wall_seconds < best.wall_seconds:
            best = run
    return best


def _scenario_payload(run) -> dict:
    stats = run.stats or {}
    return {
        "wall_seconds": run.wall_seconds,
        "variants_per_second": run.variants_per_second,
        "stage_seconds": stats.get("stage_seconds", {}),
        "family_hits_misses": stats.get("family"),
        "disk_hits_misses": stats.get("disk"),
    }


def test_lane_scaling_before_after_artifact(results_dir, tmp_path, monkeypatch):
    """Record the O(points) -> O(families) before/after in BENCH_suite.json."""
    cache_dir = str(tmp_path / "bench-cache")
    baseline = _run_best_of(FULL_GRID_CONFIG, monkeypatch,
                            scaling=False, cache_dir="off")
    cold = _run_best_of(FULL_GRID_CONFIG, monkeypatch,
                        scaling=True, cache_dir=cache_dir, fresh_dir=True)
    warm = _run_best_of(FULL_GRID_CONFIG, monkeypatch,
                        scaling=True, cache_dir=cache_dir)
    clear_calibration_cache()

    # the shortcut's license: all three paths report identically, byte for byte
    assert baseline.report.to_json() == cold.report.to_json() == warm.report.to_json()

    cold_speedup = baseline.wall_seconds / cold.wall_seconds
    warm_speedup = baseline.wall_seconds / warm.wall_seconds

    payload = {
        "kernels": kernel_names(),
        "full_grid": {
            "points": baseline.evaluated,
            "config": FULL_GRID_CONFIG.as_dict(),
            "baseline_full_path": _scenario_payload(baseline),
            "lane_scaling_cold": _scenario_payload(cold),
            "lane_scaling_warm": _scenario_payload(warm),
            "cold_speedup": cold_speedup,
            "warm_speedup": warm_speedup,
            "reports_identical": True,
        },
        "report_bytes": len(baseline.report.to_json()),
    }
    (results_dir / "BENCH_suite.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert baseline.evaluated == cold.evaluated == warm.evaluated >= 300
    # batch costing clears the paper's per-variant envelope with headroom
    assert cold.variants_per_second > 1.0 / PAPER_TYTRA_SECONDS
    # O(families) must beat O(points) — recorded ratios live in the artifact
    assert cold_speedup >= MIN_COLD_SPEEDUP, payload["full_grid"]
    assert warm_speedup >= MIN_WARM_SPEEDUP, payload["full_grid"]
    # lane scaling actually carried the batch: one analysis per family, and
    # every other lane count derived from it, once per cost group (the
    # clock axis shares a group)
    hits, misses = cold.stats["family"]
    assert misses == len(kernel_names())
    assert hits + misses == baseline.evaluated // len(FULL_GRID_CONFIG.clocks_mhz)


def _median_iqr(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr": q3 - q1, "trials": len(values)}


def _cold_cost_us(config) -> float:
    """Mean thread-CPU µs of ``EstimationPipeline.cost`` per point over one
    sweep from cleared process caches (calls only: no engine, no report
    build)."""
    clear_calibration_cache()
    backend = SerialBackend()
    total = 0.0
    jobs = WorkloadSuite(config).jobs()
    with _collector_paused():
        for job in jobs:
            pipeline = backend.pipeline_for(job)
            started = time.thread_time()
            pipeline.cost(job.module, job.workload, job.point.pattern)
            total += time.thread_time() - started
    return total / len(jobs) * 1e6


@contextmanager
def _collector_paused():
    """Time without the cyclic collector: its pauses scale with the heap
    the whole test session holds, not with the code under test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _formula_floor(config):
    """The shared EKIT and feasibility formulas plus the report objects,
    per point, with every group product computed beforehand through the
    public stages: ``(timed per-point function, its inputs)``."""
    backend = SerialBackend()
    inputs = []
    for job in WorkloadSuite(config).jobs():
        pipeline = backend.pipeline_for(job)
        variant = pipeline.analyze(job.module)
        params, selection = pipeline.extract_parameters(variant, job.workload,
                                                        job.point.pattern)
        fixed = {name: getattr(params, name) for name in (
            "hpb_gbps", "rho_h", "gpb_gbps", "rho_g", "ngs", "nwpt", "noff", "kpd",
            "ni", "knl", "dv", "word_bytes")}
        inputs.append((variant.name, pipeline.options, pipeline.resources(variant),
                       fixed, job.workload.repetitions, selection))
    feasibility = FeasibilityStage()

    def point(design, options, estimate, fixed, nki, selection) -> CostReport:
        params = EKITParameters.for_pipelined_design(
            **fixed, nki=nki, fd_mhz=options.resolved_clock_mhz(),
            initiation_interval=1.0)
        return CostReport(
            design=design, device=options.device,
            resources=ResourceStage._fresh_view(estimate),
            throughput=estimate_throughput(params, selection.form),
            feasibility=feasibility.run(estimate, params, selection.form, options),
            notes=[f"memory-execution form {selection.form.value}: {selection.reason}"])

    return point, inputs


def _floor_us(point, inputs) -> float:
    """Mean thread-CPU µs of the formula floor per point."""
    with _collector_paused():
        started = time.thread_time()
        for args in inputs:
            point(*args)
        return (time.thread_time() - started) / len(inputs) * 1e6


def test_per_point_cost_against_the_formula_floor(results_dir, tmp_path, monkeypatch):
    """Cold per-point ``cost`` time as a multiple of the formula floor.

    A point resolves its design group once and then runs only the shared
    formulas, so a cold sweep's mean ``cost`` call — group resolution
    included — must stay within ``MAX_FLOOR_RATIO`` of the formulas
    alone.  Both are measured in this thread's CPU time, trials
    interleaved, and the gate reads the median of the per-trial ratios, so
    it cancels the machine's speed state where an absolute time gate would
    not, and other processes contending for the CPUs do not move it.
    Recorded under ``per_point_cost`` in BENCH_suite.json.
    """
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
    WorkloadSuite(FULL_GRID_CONFIG).run()   # a warm store, as in perfbench
    point, inputs = _formula_floor(FULL_GRID_CONFIG)

    clear_calibration_cache()
    reports = SerialBackend().run(WorkloadSuite(FULL_GRID_CONFIG).jobs())
    assert len(reports) == len(inputs) == 306
    for report, args in zip(reports, inputs):
        assert canonical_report_dict(point(*args)) == canonical_report_dict(report)

    cold, floor = [], []
    for _ in range(FLOOR_TRIALS):
        cold.append(_cold_cost_us(FULL_GRID_CONFIG))
        floor.append(_floor_us(point, inputs))
    clear_calibration_cache()
    record = {
        "points": len(inputs),
        "cold_cost_us": _median_iqr(cold),
        "formula_floor_us": _median_iqr(floor),
        "ratio_to_floor": statistics.median(c / f for c, f in zip(cold, floor)),
        "clock": "thread_time",
        "max_ratio": MAX_FLOOR_RATIO,
    }
    path = results_dir / "BENCH_suite.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["per_point_cost"] = record
    path.write_text(json.dumps(payload, indent=2) + "\n")
    assert record["ratio_to_floor"] <= MAX_FLOOR_RATIO, record


def _expanded(payload: dict) -> dict:
    """``payload`` with every row swapped for its ``as_dict()``: what
    ``build_suite_report`` put in ``entries`` before rows were encoded
    from their objects."""
    kernels = {name: {**info, "entries": [e.as_dict() for e in info["entries"]]}
               for name, info in payload["kernels"].items()}
    return {**payload, "kernels": kernels}


def _reference_json(payload: dict) -> str:
    """The reference encoder: one stdlib dump of the canonicalized dicts."""
    return json.dumps(canonicalize(payload), sort_keys=True, indent=2) + "\n"


def _timed(encode) -> float:
    started = time.perf_counter()
    encode()
    return time.perf_counter() - started


def test_report_encode_against_the_reference(results_dir):
    """The 468-point report through the row encoder vs the reference.

    Both produce the same bytes; the row encoder must be at least
    ``MIN_ENCODE_SPEEDUP`` times faster in the median over
    ``ENCODE_TRIALS`` interleaved trials.  Recorded under ``encode`` in
    BENCH_suite.json.
    """
    report = WorkloadSuite(ENCODE_CONFIG).run().report
    expanded = _expanded(report.payload)
    text = report.to_json()
    assert report.totals["points"] == 468
    assert text == _reference_json(expanded) == canonical_json(expanded)

    reference, rows = [], []
    with _collector_paused():
        for _ in range(ENCODE_TRIALS):
            reference.append(_timed(lambda: _reference_json(expanded)) * 1e3)
            rows.append(_timed(report.to_json) * 1e3)
    record = {
        "points": report.totals["points"],
        "bytes": len(text),
        "reference_ms": _median_iqr(reference),
        "row_encoder_ms": _median_iqr(rows),
        "speedup": statistics.median(reference) / statistics.median(rows),
        "min_speedup": MIN_ENCODE_SPEEDUP,
        "bytes_identical": True,
    }
    path = results_dir / "BENCH_suite.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["encode"] = record
    path.write_text(json.dumps(payload, indent=2) + "\n")
    assert record["speedup"] >= MIN_ENCODE_SPEEDUP, record


def test_suite_report_determinism():
    """Two identical suite runs emit byte-identical canonical reports."""
    suite = WorkloadSuite(SuiteConfig.tiny())
    first = suite.run()
    repeat = suite.run()
    assert sorted(first.report.kernels) == kernel_names()
    assert first.report.to_json() == repeat.report.to_json()


def test_suite_batch_benchmark(benchmark):
    """pytest-benchmark timing of one full tiny-suite batch."""
    suite = WorkloadSuite(SuiteConfig.tiny())
    suite.run()   # warm the calibration and memoization caches

    result = benchmark(lambda: suite.run().evaluated)
    assert result >= len(kernel_names())


def test_stage_timings_are_reported():
    """The suite surfaces per-stage wall time and cache hit rates."""
    run = WorkloadSuite(SuiteConfig.tiny()).run()
    assert run.stats
    seconds = run.stats["stage_seconds"]
    assert {"calibrate", "throughput", "feasibility"} <= set(seconds)
    assert all(v >= 0 for v in seconds.values())
    rows = run.sweep.stage_timing_rows()
    assert rows == sorted(rows, key=lambda r: -r["seconds"])
    assert pytest.approx(sum(r["share"] for r in rows), abs=1e-6) == 1.0